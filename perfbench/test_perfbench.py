"""Tests of the benchmark's own checks, tracer and workload definitions.

Run from the repository root with the sources on the path:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json
import os

import pytest

import run
from checks import check, check_repeat
from tracing import Tracer
from workloads import MESH_SIZES, WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))


def _cli(op):
    import tricomi.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tricomi.cli.run(list(op.argv))
    return code, out.getvalue()


def _bound(n):
    return Op(("bound", "--x0", "-0.5", "--nx", str(n), "--ny", str(n)))


def test_check_accepts_bound_at_64():
    op = _bound(64)
    assert check(op, *_cli(op)) is None


def test_check_rejects_bound_at_256_without_positive_real_eigenvalue():
    op = _bound(256)
    reason = check(op, *_cli(op))
    assert reason == "exit code 1, expected 0"


def test_check_rejects_spurious_mode_at_304_that_the_cli_accepts():
    op = _bound(304)
    code, out = _cli(op)
    assert code == 0 and json.loads(out)["passed"] is True
    reason = check(op, code, out)
    assert reason is not None and "spurious mode" in reason


def test_check_accepts_reflected_control_only_with_exit_1():
    op = Op(("verify", "starshape", "--x0", "-0.5", "--grid", "2000", "--reflected"), 1)
    code, out = _cli(op)
    assert check(op, code, out) is None
    assert check(Op(op.argv, 0), code, out) == "exit code 1, expected 0"


def test_check_rejects_malformed_and_changed_output():
    op = _bound(64)
    assert check(op, 0, "not json").startswith("malformed output")
    assert check_repeat(op, 0, b"a", b"a") is None
    assert check_repeat(op, 0, b"a", b"b") is not None


def test_tracer_patches_every_lookup_name_and_restores():
    import tricomi.cli as cli
    import tricomi.eigensolver as eigensolver
    import tricomi.pohozaev as pohozaev

    originals = (eigensolver.area_l2_norm_sq, cli.verify_star_shaped,
                 pohozaev.line_integral, eigensolver.Grid.__dict__["build"])
    tracer = Tracer()
    tracer.install()
    try:
        assert eigensolver.area_l2_norm_sq.__wrapped__ is pohozaev.area_l2_norm_sq.__wrapped__
        assert cli.verify_star_shaped.__wrapped__ is originals[1]
        code, _ = _cli(Op(("verify", "starshape", "--x0", "-0.5", "--grid", "1000")))
        code_i, _ = _cli(Op(("verify", "integrands", "--x0", "-0.5", "--grid", "1000")))
    finally:
        tracer.restore()
    assert (code, code_i) == (0, 0)
    calls = tracer.summary["calls"]
    assert calls["geometry.verify_star_shaped"] == 1
    assert calls["geometry.membership_slack"] > 0
    assert calls["pohozaev.verify_integrand_equivalence"] == 1
    assert (eigensolver.area_l2_norm_sq, cli.verify_star_shaped,
            pohozaev.line_integral, eigensolver.Grid.__dict__["build"]) == originals


def test_workload_inputs_depend_only_on_the_seed():
    for w in WORKLOADS.values():
        assert w.passes(7) == w.passes(7)
    sweep = WORKLOADS["mesh-sweep"].passes(0)
    assert [op.argv[4] for op in sweep] == [str(n) for n in MESH_SIZES]
    assert {op.argv[2] for op in sweep} == {"-0.5"}
    assert WORKLOADS["bound-small"].passes(1) != WORKLOADS["bound-small"].passes(2)


@pytest.mark.parametrize("section, spec", [("end_to_end", run.END_TO_END),
                                           ("per_layer", run.PER_LAYER)])
def test_benchmark_json_matches_reported_metrics(section, spec):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench[section]] == list(spec)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
