"""Bit-identity of the exact outputs: pinned bundle hashes and CLI stdout.

Exact mode never rounds, so its outputs are fixed bytes: a change to the
storage of exact arrays or to their arithmetic that alters any exact output
fails here.
"""

import hashlib
import json

import pytest

from skorokhod2d import Dyadic, build_counterexample
from skorokhod2d.cli import run
from skorokhod2d.serialize import bundle_to_json

BUNDLE_SHA256 = {
    (-2, 40): "a4e590e503105f96fee2802e0af72fdae4c2aa5ef3a0940b38c8029ffebf2f9d",
    (-2, 200): "2807165206d8b6badf0079a4f0e208ed3f31aa69509236fa0e80ffc6db28ace5",
    (-2, 1600): "7ce05cc64c6ba689e7d5d24792fa72693136f813f754f5fc498695a8656e19ae",
    (-4, 40): "78a69e7645455d7a66de29773e0bc59a23caf7978e0b55117cf9691e91f2b5fc",
    (-4, 200): "af5caaf6e07ca0e16e4c28665dcb40c1f8a759abe0f5de7580ac4f37116dc922",
    (-4, 1600): "330c0144be16a0fae26bdc90f196970135e78593becef787b615422bf9fc510f",
}

REPORT = (
    '{"comp_integrals": [0.0, 0.0], "eq_residual": 0.0, "m_start": 9.5367431640625e-07, '
    '"min_g": 0.0, "monotone_violation": 0.0, "pass": true, "strict_support_ok": null, '
    '"tail_bound": 3.814697265625e-06, "tol": 0.0}'
)
COUNTEREXAMPLE_STDOUT = (
    '{"a1": -2.0, "depth": 40, "gap_at_end": [3.0, 0.0], "identities_ok": true, '
    f'"mode": "exact", "tail_bound": 3.814697265625e-06, "verify": {REPORT}, '
    f'"verify_bar": {REPORT}}}\n'
)


@pytest.mark.parametrize("a1, depth", sorted(BUNDLE_SHA256))
def test_bundle_json_hash_is_pinned(a1, depth):
    doc = json.dumps(bundle_to_json(build_counterexample(Dyadic(a1), depth)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == BUNDLE_SHA256[a1, depth]


def test_counterexample_verify_stdout_is_pinned(capsys):
    assert run(["counterexample", "--a1", "-2", "--depth", "40", "--verify"]) == 0
    assert capsys.readouterr().out == COUNTEREXAMPLE_STDOUT
