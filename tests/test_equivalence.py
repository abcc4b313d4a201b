"""The byte-identity oracle in tools/equivalence.py."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _oracle():
    spec = importlib.util.spec_from_file_location(
        "equivalence", ROOT / "tools" / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_repeats_and_hashes_the_out_file_not_its_path():
    eq = _oracle()
    cmds = (["constants", "--x0", "-0.5", "--format", "csv"],
            ["eigen", "--x0", "-0.5", "--nx", "40", "--ny", "40", "--format", "csv",
             "--out", eq.OUT])
    first = [eq.digest(argv) for argv in cmds]
    # The second --out run writes to a new temporary path.
    assert [eq.digest(argv) for argv in cmds] == first
    assert [line.split(" ", 1)[1] for line in first] == [" ".join(c) for c in cmds]
    assert len({line.split(" ", 1)[0] for line in first}) == 2


def test_cold_process_digests_as_the_in_process_run():
    eq = _oracle()
    assert len(eq.cold_commands()) == 6
    # The starshape control exits 1 with JSON on stderr: every framed part
    # of the process's result enters its digest.
    for argv in (["constants", "--x0", "-0.5", "--format", "csv"],
                 ["verify", "starshape", "--x0", "-0.5", "--grid", "200", "--reflected"]):
        cold, warm = eq.cold_digest(argv).split(" ", 1), eq.digest(argv).split(" ", 1)
        assert cold == [warm[0], "python -m tricomi.cli " + warm[1]]
