"""Golden CLI corpus: stdout and exit code of `check`, `check --all-sw-paths`
and `canon` on every fixture, of `search` on every fixture under each group
preset and dedup mode, of `check` on a malformed diagram, of `canon` on
matrix-decorated Hopf tuples and on the two malformed matrices, of `check`
on a perturbed decorated chain, on a genus-one diagram and on a diagram
whose Hopf node is split across components, and of `bundle` and
`obstruct` on a few arguments, compared byte for byte.

The corpus in tests/golden/ pins behaviour across refactors.  After a
deliberate change of output, re-record it with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from linkrep.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURE_FILES = (
    "fixtures/commuting.sld",
    "fixtures/ref1.sld",
    "fixtures/transport.sld",
)
GROUPS = ("tetrahedral", "octahedral", "icosahedral")
DEDUPS = ("none", "group_conjugacy", "so3_canonical")
CALCULUS = {
    "bundle-flat": ["bundle", "--b1", "1", "--b2", "4", "--c2", "-1"],
    "bundle-negative-energy": ["bundle", "--b1", "1", "--b2", "3", "--c2", "-2"],
    "bundle-b2-2-large-c2": ["bundle", "--b1", "0", "--b2", "2", "--c2", "100000000000000"],
    "obstruct-b2": ["obstruct", "--b2", "4"],
    "obstruct-summands": ["obstruct", "--summands", "1,1,1,1"],
    "obstruct-b2-summands": ["obstruct", "--b2", "6", "--summands", "4,8,0"],
}
# matrix decorations that no group owns: irrational, Pythagorean and mixed
# with perms, then one matrix rejected per check of the parse (exit 2)
TUPLES = {
    "canon-tuple-icosahedral": ["canon", "tests/tuple_icosahedral.sld"],
    "canon-tuple-mixed": ["canon", "tests/tuple_mixed.sld"],
    "canon-matrix-not-orthogonal": ["canon", "tests/matrix_not_orthogonal.sld"],
    "canon-matrix-det": ["canon", "tests/matrix_det.sld"],
}
# a 40-node chain with a comment, an even twist and a decorated circle that
# no arc touches; interleaved bands whose genus0 check fails; a Hopf node
# whose members lie in different components, next to a lone circle
DIAGRAMS = {
    "check-chain-perturbed": ["check", "tests/chain_perturbed.sld"],
    "check-genus-one": ["check", "tests/genus_one.sld"],
    "check-split-hopf": ["check", "tests/split_hopf.sld"],
}


def _cases() -> dict:
    """Case name -> argv, with fixture paths relative to the repository root."""
    cases = {}
    for path in FIXTURE_FILES:
        stem = Path(path).stem
        cases[f"check-{stem}"] = ["check", path]
        cases[f"check-all-sw-paths-{stem}"] = ["check", path, "--all-sw-paths"]
        cases[f"canon-{stem}"] = ["canon", path]
        for group in GROUPS:
            for dedup in DEDUPS:
                cases[f"search-{stem}-{group}-{dedup}"] = [
                    "search", path, "--group", group, "--dedup", dedup,
                ]
    cases["check-malformed"] = ["check", "tests/malformed.sld"]
    cases.update(CALCULUS)
    cases.update(TUPLES)
    cases.update(DIAGRAMS)
    return cases


def _run(argv) -> tuple:
    """(exit code, stdout bytes) of the CLI run in-process."""
    argv = [str(ROOT / a) if a.endswith(".sld") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_corpus_covers_every_case():
    assert sorted(_exit_codes()) == sorted(_cases())
    assert sorted(p.stem for p in GOLDEN.glob("*.stdout")) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_cli_output_matches_golden(name):
    code, stdout = _run(_cases()[name])
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert code == _exit_codes()[name]


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(_cases().items()):
        codes[name], stdout = _run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
