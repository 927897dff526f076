"""Pinned outputs of both analysis front ends on the full case grids.

Every registry case (29) and every canonical suite case (19) is run
through the trace analyzer (``analyze_trace`` + FS001-FS004 lint) and the
plan analyzer (``predict_plan`` + FS005-FS008 lint).  Each result is
reduced to a sha256 digest over the verdict, line counts, every shared
line's category/contention/bit-exact significance, the near misses, the
per-thread profiles (bit-exact refetch rate) and the sorted finding
fingerprints.  The digests were recorded before the two analyzers were
merged onto one classifier, so any refactor that changes one verdict,
one float bit or one fingerprint fails here.

Only ``to_dict()`` keys and ``Finding.fingerprint`` are read, so the
test does not depend on the report's Python types.  To print the current
digests (for a deliberate change of analysis semantics), run
``PYTHONPATH=src python tests/test_analysis_pins.py``.
"""

import hashlib
import json

import pytest

from repro.analysis.lint import SharingLinter
from repro.analysis.predict import predict_plan
from repro.analysis.sharing import analyze_trace
from repro.analysis.validate import registry_grid, suite_grid

PINS = {
    'psums/bad-fs/t4': ('561fce91be692ae1', '2dc9b399eb196f5e'),
    'psums/good/t4': ('2f44c1b16396180e', '2f44c1b16396180e'),
    'padding/bad-fs/t4': ('6298f02ab8de4403', 'e9fad3efd58ad515'),
    'padding/good/t4': ('272af3cd0d7348e9', '272af3cd0d7348e9'),
    'false1/bad-fs/t4': ('6af31594b26be92e', 'a8db22667aed2841'),
    'false1/good/t4': ('e6341c0268d47c16', 'e6341c0268d47c16'),
    'psumv/bad-fs/t4': ('8a057acc550a6827', '3b8c476b9ecf0624'),
    'psumv/bad-ma/t4': ('8f4051887ec5f070', 'db2095a7ec5b673f'),
    'psumv/good/t4': ('2dd41a7bfe22892c', '2dd41a7bfe22892c'),
    'pdot/bad-fs/t4': ('e17a0c3593a2704c', '0ed7a2d9ae5c6796'),
    'pdot/bad-ma/t4': ('f83402a39fd6648a', '41311f3650d17d01'),
    'pdot/good/t4': ('443b7994f6f21fd3', '443b7994f6f21fd3'),
    'count/bad-fs/t4': ('9ce41d819d140593', 'ea63c084521d101b'),
    'count/bad-ma/t4': ('8b9e879c39b178bc', '03faff9fb8ba2ca3'),
    'count/good/t4': ('aec4697928ce43d1', '339eb5d4ab4b62c0'),
    'pmatmult/bad-fs/t4': ('82281679fa42e628', '3fe01c5f37c57822'),
    'pmatmult/bad-ma/t4': ('0b547ff6a8335e13', '19e59aae9019e70b'),
    'pmatmult/good/t4': ('51a046a1e57693f8', '0b547ff6a8335e13'),
    'pmatcompare/bad-fs/t4': ('edcb7b7adfec6f23', '79ab07d053abe8da'),
    'pmatcompare/bad-ma/t4': ('15933087b36f139e', 'aa78917634bd0c72'),
    'pmatcompare/good/t4': ('26dcd2e5ad05f419', '26dcd2e5ad05f419'),
    'seq_read/bad-ma/t1': ('a5eed7270f1a992e', 'b63eeb2ccb023fd7'),
    'seq_read/good/t1': ('e2c0d1b5a50cc42e', 'e2c0d1b5a50cc42e'),
    'seq_write/bad-ma/t1': ('cd4004853dd70b92', 'b63eeb2ccb023fd7'),
    'seq_write/good/t1': ('e2c0d1b5a50cc42e', 'e2c0d1b5a50cc42e'),
    'seq_rmw/bad-ma/t1': ('604bbea795db17ee', 'a58dcf871169c92c'),
    'seq_rmw/good/t1': ('227a83c936abe604', '227a83c936abe604'),
    'seq_matmul/bad-ma/t1': ('98e41bc5eab2a453', 'c95252687f53faec'),
    'seq_matmul/good/t1': ('b3fe8506362c6268', 'b3fe8506362c6268'),
    'histogram/10MB/-O0/t6': ('c6bd84f1367b88d5', '4449d27e4ea8c906'),
    'linear_regression/50MB/-O0/t6': ('e1e802b6a0a633d7', 'f999ef1aa6f90e2a'),
    'word_count/small/-O0/t6': ('283111b135096c75', '3c35d1cdd2d3c505'),
    'reverse_index/datafiles/-O0/t6': ('123e5e33369a9a26', '4013bd3e4b2d17a2'),
    'kmeans/small/-O0/t6': ('6e03e9d17a06ae5a', 'be354b3ec8712255'),
    'matrix_multiply/256/-O0/t6': ('02acbb277aa0695f', '04a26a066a9cfe88'),
    'string_match/small/-O0/t6': ('03b90c9cbcc08828', '5653fe91df039de5'),
    'pca/small/-O0/t6': ('17a13e7e2defbc3f', '9a71871e9c013f52'),
    'ferret/simsmall/-O1/t8': ('e18a4704a9104c8e', 'c9c4312a45f29dc3'),
    'canneal/simsmall/-O1/t8': ('2d8e0c190129fb78', 'd9eb213f7c398b47'),
    'fluidanimate/simsmall/-O1/t8': ('58d42cb07e3eaeb0', '9e45e6971b05b9b3'),
    'streamcluster/simsmall/-O1/t8': ('e2411fba48f57ca2', '0b77c85140db7815'),
    'swaptions/simsmall/-O1/t8': ('38a3a016b2b77064', 'c0e10e9f376e6152'),
    'vips/simsmall/-O1/t8': ('cfb36dce8a276bf7', 'e5080cf8ab557acb'),
    'bodytrack/simsmall/-O1/t8': ('0e356371db1ed6a4', '826c432bac2e3c04'),
    'freqmine/simsmall/-O1/t8': ('3cb9cb1fbe05223d', 'ef1227f6b4afa204'),
    'blackscholes/simsmall/-O1/t8': ('77c28a89cafb16c6', 'cc80778fe4ea4e31'),
    'raytrace/simsmall/-O1/t8': ('ece052531b94a2a4', 'a1d081c74f4c4813'),
    'x264/simsmall/-O1/t8': ('eb723a6f28e35638', 'fc8c3574806578a5'),
}


def _cases():
    return ([(w.plan(cfg), w.trace(cfg)) for w, cfg in registry_grid()]
            + [(p.plan(case), p.trace(case)) for p, case in suite_grid()])


def _digest(report_dict, findings):
    d = report_dict
    basis = [
        d["verdict"], d["n_lines"], d["category_counts"]["private"],
        [[s["line"], s["category"], s["contended"], repr(s["significance"])]
         for s in d["shared_lines"]],
        [[n["line"], n["tid_low"], n["tid_high"], n["slack_bytes"]]
         for n in d["near_misses"]],
        [[p["tid"], p["n_accesses"], p["footprint_lines"],
          repr(p["refetch_rate"])] for p in d["profiles"]],
        sorted(f.fingerprint for f in findings),
    ]
    raw = json.dumps(basis, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:16]


def current_digests():
    linter = SharingLinter()
    out = {}
    for plan, trace in _cases():
        static = analyze_trace(trace)
        pred = predict_plan(plan)
        out[plan.scope()] = (
            _digest(static.to_dict(), linter.lint(trace, static)),
            _digest(pred.to_dict(), linter.lint_prediction(pred)),
        )
    return out


@pytest.fixture(scope="module")
def digests():
    return current_digests()


def test_grid_is_complete(digests):
    assert len(digests) == 48
    assert set(digests) == set(PINS)


@pytest.mark.parametrize("scope", sorted(PINS))
def test_trace_front_end_pinned(digests, scope):
    assert digests[scope][0] == PINS[scope][0]


@pytest.mark.parametrize("scope", sorted(PINS))
def test_plan_front_end_pinned(digests, scope):
    assert digests[scope][1] == PINS[scope][1]


if __name__ == "__main__":  # pragma: no cover - digest recorder
    for scope, pair in current_digests().items():
        print(f"    {scope!r}: {pair!r},")
