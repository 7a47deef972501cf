import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pbelyi
from pbelyi.bounds import decimal_string, field_size_check, tame_threshold

GOLDEN = Path(__file__).parent / "golden"
# the child interpreter imports the same pbelyi as this one
CHILD_PATH = os.pathsep.join(filter(None, (str(Path(pbelyi.__file__).parents[1]), os.environ.get("PYTHONPATH"))))


def run_cli(*argv, python_flags=(), timeout=None):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "pbelyi.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=CHILD_PATH),
        timeout=timeout,
    )


def run_json(*argv):
    proc = run_cli("--json", *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bound_tame_json():
    doc = run_json("bound", "tame", "--g", "0", "--s", "0", "--t", "0", "--q", "89")
    assert doc["value"] == "88"
    assert doc["m"] == 1
    assert doc["L"] == 1
    assert doc["config"]["command"] == "bound tame"
    assert doc["config"]["seed"] == 1


def test_bound_threshold_and_field_size():
    doc = run_json("bound", "threshold", "--g", "1", "--s", "0", "--t", "0")
    assert doc["threshold"] == {"num": 3125, "den": 1}
    # the size threshold for A=3, n=1, s=0 is 1900/21, just above 89
    doc = run_json(
        "bound", "field-size", "--q", "89", "--A", "3", "--g", "0", "--n", "1", "--s", "0"
    )
    assert doc["ok"] is False
    assert doc["threshold"] == {"num": 1900, "den": 21}
    doc = run_json(
        "bound", "field-size", "--q", "97", "--A", "3", "--g", "0", "--n", "1", "--s", "0"
    )
    assert doc["ok"] is True


def test_text_mode_prints_flat_lines():
    proc = run_cli("bound", "tame", "--g", "0", "--s", "0", "--t", "0", "--q", "89")
    assert proc.returncode == 0
    assert "value: 88" in proc.stdout


def test_json_mode_emits_exactly_one_document():
    proc = run_cli("--json", "bound", "wild", "--g", "0", "--s", "0", "--t", "0", "--p", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == "162"
    assert proc.stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_identical_invocations_are_byte_identical():
    argv = ("--json", "count", "divisors", "--curve", "p1/3", "--r", "2")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_reduces_and_echoes_the_map():
    doc = run_json(
        "verify", "tame", "--q", "5", "--map", "num=0,1,1/den=0,1", "--S", "none", "--T", "none"
    )
    # (x^2+x)/x reduces to x+1 before anything else happens
    assert doc["config"]["map"] == "poly=1,1"
    assert doc["passed"] is True


def test_verify_accepts_field_with_modulus():
    # extension-field polynomials separate coefficients with ';'
    doc = run_json(
        "verify", "tame", "--q", "3^2/1,0,1", "--map", "poly=0,0;1,0", "--S", "none", "--T", "none"
    )
    assert doc["config"]["field"] == "3^2"
    assert doc["passed"] is True


def test_verify_simple_subcommand():
    doc = run_json("verify", "simple", "--q", "5", "--map", "poly=0,0,1")
    assert doc["kind"] == "simple"
    assert doc["passed"] is True


def test_count_points_with_workers():
    doc = run_json("--workers", "2", "count", "points", "--curve", "hyp/3/0,2,0,1", "--m", "4")
    assert doc["counts"] == {"1": 4, "2": 16, "3": 28, "4": 64}
    assert doc["genus"] == 1


def test_exit_code_2_on_bad_input():
    for argv in (
        ("bound", "tame", "--g", "0", "--s", "0", "--t", "0", "--q", "4"),
        ("verify", "tame", "--q", "5", "--map", "garbage"),
        ("count", "points", "--curve", "nonsense"),
        ("bound", "tame", "--g", "0", "--s", "0", "--t", "0"),
        ("bound", "tame", "--g", "0", "--s", "0", "--t", "0", "--q", "89", "--bogus"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv


def test_a_characteristic_the_primality_test_cannot_take_exits_2():
    # psi_12, a strong pseudoprime to the bases to 37, is composite; from psi_13 up no prime is decided
    for p, says in (
        ("318665857834031151167461", "p must be an odd prime"),
        ("3317044064679887385961981", "decide only n below 3317044064679887385961981"),
    ):
        proc = run_cli("bound", "wild", "--g", "0", "--s", "0", "--t", "1", "--p", p)
        assert proc.returncode == 2 and proc.stdout == "", p
        assert says in proc.stderr, proc.stderr


def test_exit_code_1_when_a_tower_coefficient_does_not_descend(monkeypatch, capsys):
    # the pole map of T = {0, 1, 2} over F_5 has a quadratic critical orbit, so
    # the tower's h0 is built over F_25 and must descend to F_5
    from pbelyi import cli, constructions
    from pbelyi.errors import PreconditionError
    from pbelyi.field import EmbeddingMap

    class Stuck(EmbeddingMap):
        __slots__ = ()

        def section(self, a):
            raise PreconditionError("element does not descend to the source field")

    real_embed = constructions.embed

    def stuck_embed(source, target):
        eps = real_embed(source, target)
        return Stuck(eps.source, eps.target, eps.image_of_generator)

    monkeypatch.setattr(constructions, "embed", stuck_embed)
    assert cli.main(["construct", "wild", "--q", "5", "--T", "0,1,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "does not descend" in err


def test_inseparable_wild_map_exits_2():
    proc = run_cli("verify", "wild", "--q", "3", "--map", "poly=0,0,0,1", "--S", "none", "--T", "none")
    assert proc.returncode == 2
    assert proc.stderr == "error: map is inseparable, its critical locus is not finite\n"


def test_pipeline_with_overlapping_point_sets_exits_2():
    for extra in ((), ("--map", "poly=0,0,1")):
        proc = run_cli("construct", "pipeline", "--q", "5", "--S", "1,4", "--T", "1", *extra)
        assert proc.returncode == 2, extra
        assert proc.stdout == ""
        assert proc.stderr == "error: point 1 is both marked and avoided\n"


def test_pipeline_names_the_given_points_whose_images_meet():
    # 1 is marked and 4 avoided, and x^2 sends both to 1; 2 and 3 share the image 4, which no avoided point has
    proc = run_cli("construct", "pipeline", "--q", "5", "--map", "poly=0,0,1", "--S", "1,2,3", "--T", "0,4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: marked point 1 and avoided point 4 both map to 1\n"


def test_pipeline_names_an_avoided_point_whose_image_lies_in_s_prime():
    # 0 is avoided, and its image 0 is a branch value of x^2, so it lies in S'
    proc = run_cli("construct", "pipeline", "--q", "5", "--map", "poly=0,0,1", "--S", "1", "--T", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: avoided point 0 maps to 0, which lies in S', "
        "the images of the marked points plus the branch values of the map\n"
    )


def test_json_error_paths_keep_stdout_empty():
    proc = run_cli("--json", "construct", "wild", "--q", "3", "--S", "0,1,2", "--T", "none")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "q + 1 - N - s" in proc.stderr


def test_guard_errors_name_the_way_out():
    proc = run_cli("search", "tame", "--q", "5", "--S", "all", "--T", "none", "--d-max", "3")
    assert proc.returncode == 2
    assert "randomized" in proc.stderr and "--guard-override" in proc.stderr
    proc = run_cli("bound", "tame", "--g", "9", "--s", "0", "--t", "0", "--q", "3")
    assert proc.returncode == 2
    assert "digit_guard" in proc.stderr
    for argv in (("points", "--m", "11"), ("divisors", "--r", "9")):  # 5^11 points, 5^9 closed-point candidates
        proc = run_cli("count", argv[0], "--curve", "p1/5", *argv[1:])
        assert proc.returncode == 2
        assert "guard=" in proc.stderr and "--guard-override" in proc.stderr


HYP5 = "hyp/5/0,1,0,1"


@pytest.mark.parametrize(
    "argv, way_out",
    [
        (("search", "tame", "--q", "5", "--S", "all", "--d-max", "4000", "--fields", "5"), "--guard-override"),
        (("count", "divisors", "--curve", HYP5, "--r", "7000"), "--guard-override"),
        (("bound", "tame", "--g", "0", "--s", "0", "--t", "6000", "--q", "5"), "digit_guard"),
        (("bound", "tame", "--g", "0", "--s", "0", "--t", "30000", "--q", "5"), "digit_guard"),
        (("count", "points", "--curve", HYP5, "--m", "7000"), "--guard-override"),
        (("count", "sym", "--curve", HYP5, "--r", "7000"), "--guard-override"),
        (("bound", "threshold", "--g", "0", "--s", "0", "--t", "2000"), "int_max_str_digits"),
        (("bound", "field-size", "--q", "97", "--A", "3", "--g", "1", "--n", "2000", "--s", "0"), "int_max_str_digits"),
        (("bound", "tame", "--g", "0", "--s", "0", "--t", "100000", "--q", "5"), "digit_guard"),
    ],
)
def test_oversized_requests_exit_2_at_once(argv, way_out):
    start = time.monotonic()
    proc = run_cli(*argv, timeout=60)
    assert time.monotonic() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert ", over the limit " in proc.stderr and way_out in proc.stderr
    assert "Exceeds the limit" not in proc.stderr


def test_a_long_threshold_prints_under_a_raised_digit_limit():
    # the way out named by the refusal above; the interpreter flag is the user's, the program sets none
    flags = ("-X", "int_max_str_digits=10000")
    proc = run_cli("bound", "threshold", "--g", "0", "--s", "0", "--t", "2000", python_flags=flags)
    assert proc.returncode == 0, proc.stderr
    threshold = tame_threshold(0, 0, 2000)
    assert f"threshold.num: {decimal_string(threshold.numerator)}\n" in proc.stdout
    assert f"threshold.den: {decimal_string(threshold.denominator)}\n" in proc.stdout
    argv = ("bound", "field-size", "--q", "97", "--A", "3", "--g", "1", "--n", "2000", "--s", "0")
    proc = run_cli(*argv, python_flags=flags)
    assert proc.returncode == 0, proc.stderr
    threshold = field_size_check(97, 3, 1, 2000, 0)["threshold"]
    assert f"threshold.num: {decimal_string(threshold.numerator)}\n" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "tame", "--q", "x", "--map", "poly=1"), "field 'x' is not p^n"),
        (("verify", "tame", "--q", "5^x", "--map", "poly=1"), "field '5^x' is not p^n"),
        (("verify", "tame", "--q", "5", "--map", "poly=1,a"), "element 'a' is not a list of integers"),
        (("verify", "tame", "--q", "5", "--map", "poly=1", "--S", "1,b"), "element 'b' is not a list of integers"),
        (("search", "tame", "--q", "5", "--d-max", "1", "--fields", "5,y"), "field 'y' is not p^n"),
        (("count", "points", "--curve", "hyp/5/0,1,0,x"), "element 'x' is not a list of integers"),
    ],
)
def test_unreadable_integers_exit_2_naming_the_token(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"error: {message}" in proc.stderr


def test_a_plain_value_error_is_an_internal_error(monkeypatch, capsys):
    from pbelyi import cli

    def broken(args):
        raise ValueError("not a precondition")

    monkeypatch.setitem(cli._HANDLERS, "bound", broken)
    assert cli.main(["bound", "threshold", "--g", "0", "--s", "0", "--t", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: not a precondition\n"


def test_a_missing_int_max_str_digits_means_no_limit(monkeypatch, capsys):
    """Before 3.10.7 sys has no get_int_max_str_digits, and the interpreter has no digit limit."""
    from pbelyi import cli

    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert cli.main(["bound", "threshold", "--g", "0", "--s", "0", "--t", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "threshold.num: " in out and "threshold.den: " in out


def test_verify_lists_violations_in_the_order_of_the_marked_points(capsys):
    from pbelyi import cli

    assert cli.main(["--json", "verify", "tame", "--q", "5", "--map", "poly=0,0,1", "--S", "3,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["S"] == ["3", "2"]
    assert doc["violations"] == [
        "marked point 3 maps to 4, outside {0, 1, inf}",
        "marked point 2 maps to 4, outside {0, 1, inf}",
    ]


def test_count_flags_below_one_exit_2():
    for argv, flag in (
        (("points", "--curve", "hyp/5/0,1,0,1", "--m", "0"), "--m"),
        (("points", "--curve", "hyp/5/0,1,0,1", "--m", "-2"), "--m"),
        (("zeta", "--curve", "hyp/5/0,1,0,1", "--predict", "0"), "--predict"),
        (("zeta", "--curve", "hyp/5/0,1,0,1", "--predict", "-1"), "--predict"),
    ):
        proc = run_cli("count", *argv)
        assert proc.returncode == 2, argv
        assert flag in proc.stderr and proc.stdout == "", argv
    # the genus-0 fit asks for no counts and still prints its numerator
    assert run_json("count", "zeta", "--curve", "p1/5")["zeta"]["a"] == [1]


def test_search_with_a_field_listed_twice_exits_2():
    proc = run_cli("--json", "search", "tame", "--q", "5", "--S", "all", "--d-max", "1", "--fields", "5,5")
    assert proc.returncode == 2
    assert "coefficient field 5 is listed twice" in proc.stderr and proc.stdout == ""


def test_wild_search_with_normalize_exits_2():
    # there is no --normalize option: argparse rejects it for either kind
    argv = ("search", "wild", "--q", "5", "--S", "1", "--d-max", "2", "--fields", "5")
    assert run_json(*argv)["witness"] == "num=1/den=4,1"
    for kind in ("tame", "wild"):
        proc = run_cli("--json", "search", kind, *argv[2:], "--normalize")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--normalize" in proc.stderr


def test_out_of_range_point_exits_2():
    proc = run_cli("search", "tame", "--q", "5", "--S", "0;5", "--d-max", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "outside [0, 5)" in proc.stderr


def test_out_of_range_coefficient_exits_2():
    proc = run_cli("--json", "verify", "tame", "--q", "5", "--map", "poly=0,7", "--S", "none")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "outside [0, 5)" in proc.stderr


def test_out_of_range_modulus_exits_2():
    for q in ("3^2/1,0,4", "3^2/-2,0,1", "3^2/1,0,1,0"):
        proc = run_cli("--json", "verify", "tame", "--q", q, "--map", "poly=0;1")
        assert proc.returncode == 2, q
        assert proc.stdout == ""
        assert "modulus" in proc.stderr


def test_large_composite_q_exits_2_at_once():
    # (10^9 + 7)(10^9 + 9) has no small factor for trial division to find
    proc = run_cli("bound", "tame", "--g", "0", "--s", "0", "--t", "0", "--q", "1000000016000000063")
    assert proc.returncode == 2
    assert "odd prime power" in proc.stderr


def test_guard_override_flag():
    doc = run_json(
        "--guard-override",
        "1000000000",
        "search",
        "tame",
        "--q",
        "5",
        "--S",
        "none",
        "--T",
        "none",
        "--d-max",
        "1",
    )
    assert doc["degree"] == 1
    assert doc["fields_searched"] == ["5", "5^2"]


def test_randomized_search_echoes_seed_and_repeats():
    argv = (
        "--json",
        "--seed",
        "9",
        "search",
        "wild",
        "--q",
        "3",
        "--S",
        "none",
        "--T",
        "none",
        "--d-max",
        "1",
        "--fields",
        "3",
        "--mode",
        "randomized",
        "--budget",
        "5",
    )
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["config"]["seed"] == 9
    assert doc["exhausted"] is False


def test_search_witness_revalidates_in_a_fresh_process():
    doc = run_json(
        "search", "wild", "--q", "3", "--S", "1", "--T", "none", "--d-max", "1", "--fields", "3"
    )
    assert doc["degree"] == 1
    again = run_json(
        "verify", "wild", "--q", "3", "--map", doc["witness"], "--S", "1", "--T", "none"
    )
    assert again["passed"] is True


GOLDEN_CASES = [
    ("bound_tame_q83.json", ("bound", "tame", "--g", "0", "--s", "0", "--t", "0", "--q", "83")),
    (
        "verify_power_q5.json",
        ("verify", "tame", "--q", "5", "--map", "poly=0,0,0,0,1", "--S", "all", "--T", "none"),
    ),
    (
        "verify_collapse_q5.json",
        ("verify", "tame", "--q", "5", "--map", "poly=0,1,0,0,4", "--S", "0,1,2,inf", "--T", "none"),
    ),
    (
        "verify_shifted_marked_q5.json",
        ("verify", "tame", "--q", "5", "--map", "poly=4,0,0,0,1", "--S", "all", "--T", "none"),
    ),
    (
        "verify_shifted_avoided_q5.json",
        ("verify", "tame", "--q", "5", "--map", "poly=4,0,0,0,1", "--S", "none", "--T", "all"),
    ),
    ("reduce_collapse_q5.json", ("construct", "tame-reduce", "--q", "5", "--S", "0,1,2,inf", "--tau", "3")),
    (
        "search_wild_q3.json",
        ("search", "wild", "--q", "3", "--S", "none", "--T", "0", "--d-max", "3", "--fields", "3"),
    ),
    ("count_zeta_q5.json", ("count", "zeta", "--curve", "hyp/5/0,1,0,1")),
    ("pipeline_identity_q5.json", ("construct", "pipeline", "--q", "5", "--S", "2", "--T", "3")),
]


def test_golden_outputs_are_stable():
    for name, argv in GOLDEN_CASES:
        proc = run_cli("--json", *argv)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == (GOLDEN / name).read_text(), name


def test_verify_goldens_are_stable_under_python_O():
    # without asserts; verify_collapse_q5.json prints a representative in F_25, found on demand
    cases = [(name, argv) for name, argv in GOLDEN_CASES if name.startswith("verify_")]
    assert len(cases) == 4
    for name, argv in cases:
        proc = run_cli("--json", *argv, python_flags=("-O",))
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == (GOLDEN / name).read_text(), name


def test_golden_collapse_report_content():
    doc = json.loads((GOLDEN / "verify_collapse_q5.json").read_text())
    stray = next(p for p in doc["report"]["points"] if p["min_poly"] == "1,1")
    assert stray["branch_image"] == "3"
    assert stray["index"] == 2
    assert doc["passed"] is False


def test_golden_shifted_variant_fails_both_readings():
    marked = json.loads((GOLDEN / "verify_shifted_marked_q5.json").read_text())
    avoided = json.loads((GOLDEN / "verify_shifted_avoided_q5.json").read_text())
    assert marked["passed"] is False
    assert avoided["passed"] is False


def test_a_prime_power_given_as_a_characteristic_names_its_p_n_spelling():
    for q, says in (("9", "write 9 as 3^2"), ("729", "write 729 as 3^6"), ("25/1,0,1", "write 25 as 5^2")):
        proc = run_cli("verify", "tame", "--q", q, "--map", "poly=0,1")
        assert proc.returncode == 2 and proc.stdout == "", q
        assert f"characteristic must be prime, got {q.split('/')[0]}; {says}" in proc.stderr, proc.stderr
    for q in ("15", "8", "1"):  # no odd prime power: nothing to respell
        proc = run_cli("verify", "tame", "--q", q, "--map", "poly=0,1")
        assert proc.returncode == 2 and "write" not in proc.stderr, q
        assert f"characteristic must be prime, got {q}\n" in proc.stderr, proc.stderr


def test_worker_counts_below_one_or_not_integers_exit_2():
    argv = ("count", "points", "--curve", "p1/5")
    for workers in ("0", "-3"):
        proc = run_cli("--workers", workers, *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"error: --workers = {workers} lies outside the integers at least 1" in proc.stderr
    proc = run_cli("--workers", "1.5", *argv)  # argparse reads the flag as an int
    assert proc.returncode == 2 and "--workers" in proc.stderr and proc.stdout == ""
