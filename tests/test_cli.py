import json
import os
import subprocess
import sys
from pathlib import Path

import pbelyi

GOLDEN = Path(__file__).parent / "golden"
# the child interpreter imports the same pbelyi as this one
CHILD_PATH = os.pathsep.join(filter(None, (str(Path(pbelyi.__file__).parents[1]), os.environ.get("PYTHONPATH"))))


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "pbelyi.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=CHILD_PATH),
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


def test_json_error_paths_keep_stdout_empty():
    proc = run_cli("--json", "construct", "wild", "--q", "3", "--S", "0,1,2", "--T", "none")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "q + 1 - N - s" in proc.stderr


def test_guard_errors_name_the_way_out():
    proc = run_cli("search", "tame", "--q", "5", "--S", "all", "--T", "none", "--d-max", "2")
    assert proc.returncode == 2
    assert "randomized" in proc.stderr
    proc = run_cli("bound", "tame", "--g", "9", "--s", "0", "--t", "0", "--q", "3")
    assert proc.returncode == 2
    assert "digit_guard" in proc.stderr


def test_out_of_range_point_exits_2():
    proc = run_cli("search", "tame", "--q", "5", "--S", "0;5", "--d-max", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "outside [0, 5)" in proc.stderr


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
