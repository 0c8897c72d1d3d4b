"""Refusals that no other test reaches: each malformed input raises its
exception with its message, and through the CLI exits with its code."""

import json

import numpy as np
import pytest

from luinv import _einsum as E
from luinv import closedform as F
from luinv import perms as P
from luinv import states as S
from luinv.cli import main

RHO = S.random_density((2, 2), seed=0)
PSI = S.random_pure((2, 2), seed=1)
WRONG_MIXED = {"dims": [2], "kind": "mixed", "data": [[[1.0, 0.0], [0.0, 0.0]]]}


def write_state(tmp_path, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("call,error,fragment", [
    (lambda _: E.plan([["a", "b"]], [], [(2,)]),
     ValueError, "subscripts (0, 1) do not match operand shape (2,)"),
    (lambda _: F.parse_formula("Tr( rho ) rho"),
     ValueError, "text after the closing ')'"),
    (lambda _: F.parse_formula("Tr( pt[1](I[1]) )")(RHO),
     ValueError, "pt and tp take rho, pi or another pt/tp"),
    (lambda _: F.parse_formula("Tr( pt[1](pt[2](rho)) )")(RHO),
     ValueError, "pt[1] acts on traced subsystems [1]"),
    (lambda _: P.conjugate(P.Perm((2, 1)), P.Perm((1, 2, 3))),
     ValueError, "grade mismatch: 2 != 3"),
    (lambda _: P.s3_orbit_representatives(0),
     ValueError, "arity must be >= 1"),
    (lambda _: S.apply_local_unitaries(PSI, [np.eye(2)]),
     ValueError, "expected 2 unitaries, got 1"),
    (lambda tmp_path: S.save_state(PSI.amplitudes, tmp_path / "state.json"),
     TypeError, "not a state: <class 'numpy.ndarray'>"),
    (lambda _: S.PureState((2, 2), np.ones(4)),
     ValueError, "amplitude shape (4,) does not match dims (2, 2)"),
    (lambda _: S.DensityMatrix((2, 2), np.ones((2, 2))),
     ValueError, "entry shape (2, 2) does not match dims (2, 2)"),
    (lambda tmp_path: S.load_state(write_state(tmp_path, WRONG_MIXED)),
     ValueError, "entry shape (1, 2) does not match dims (2,)"),
], ids=["plan-subscripts", "formula-tail", "pt-of-identity", "pt-of-traced",
        "conjugate-grades", "s3-arity", "unitary-count", "save-array",
        "pure-shape", "mixed-shape", "mixed-file-shape"])
def test_library_refusals(tmp_path, call, error, fragment):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert fragment in str(info.value)


@pytest.mark.parametrize("args,doc,code,fragment", [
    (["graph", "--m", "3", "--k", "2", "--label", "s,t", "--kind", "mixed", "--decompose"],
     None, 2, "--decompose applies to pure labels"),
    (["eval", "--label", "[2,1", "--m", "2", "--kind", "pure"],
     {"dims": [2], "kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]]},
     2, "unterminated image list: '[2,1'"),
    (["eval", "--label", "", "--m", "1", "--kind", "pure"],
     {"dims": [2], "kind": "pure", "data": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
     2, "state data entries must be [re, im] pairs"),
    (["eval", "--label", "t", "--kind", "pure"],
     {"dims": [2, 2], "kind": "pure", "data": [[1.0, 0.0]]},
     2, "amplitude shape (1,) does not match dims (2, 2)"),
    (["eval", "--label", "t", "--kind", "mixed"],
     WRONG_MIXED, 2, "entry shape (1, 2) does not match dims (2,)"),
    # the guard reads dims before the data's shape is compared
    (["eval", "--label", "t", "--kind", "pure"],
     {"dims": [5000], "kind": "pure", "data": [[1.0, 0.0]]},
     3, "resource guard: total dimension 5000 exceeds limit 4096"),
], ids=["decompose-mixed", "unterminated-label", "not-pairs", "pure-file-shape",
        "mixed-file-shape", "guard-before-shape"])
def test_cli_refusals(capsys, tmp_path, args, doc, code, fragment):
    if doc is not None:
        args = args + ["--state", str(write_state(tmp_path, doc))]
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err
