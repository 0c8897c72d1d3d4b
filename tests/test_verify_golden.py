"""Golden verify reports.

Each digest is the sha256 of reports_to_json(run_suite(suite, seed, dims)),
for the five suites that run numeric checks: GOLDEN at the default seed 0,
GOLDEN_SEED_1 at seed 1.  The reports carry residuals to the last bit, so the
digests pin the sampling, the batching and every engine's rounding; they
were computed with numpy's OpenBLAS build on x86-64, and another BLAS may
round differently.  The samples come from one generator per stream, seeded
from (seed, stream, rank), and a check takes the first n samples of each of
its streams; a run's checks share one sample table, and
tests/test_verify.py checks that the reports do not depend on that sharing
or on the order of the requests.  Run this file as a script to print the
digests of the luinv on the import path.
"""

import hashlib

import pytest

from luinv.verify import reports_to_json, run_suite

GOLDEN = {
    ("lu", (2, 2)): "8a8ddcf825409413b73d07d9ed6e6f06f89133b96b789d0fc7e9c18b8e5a651c",
    ("closed", (2, 2)): "6e056b77e99c1cb113b7390aa304891956a51cf68602bcedaec7d48975d7b690",
    ("independence", (2, 2)): "188483cb9afb42911d67e7b1592ec5f1af4f74c1f152db12a7c22bc38c46fd1c",
    ("classes", (2, 2)): "b6a0b4a021eb7b235e431bbd8b98eea7a2745225d22492311089f6a50a9768d6",
    ("purification", (2, 2)): "8f9f0132aafa339be7d23e34531fc24de172d9dc4e6a9ebcc8f55970f0630bc1",
    ("lu", (2, 3)): "bbda896ae5478ba548b411d429a6904c5d097057167932908b2c810ebb6991bb",
    ("closed", (2, 3)): "6b600fdbdbdd412f983bac1adeaa861b66094f3d49ea541f6a36883df0320bac",
    ("independence", (2, 3)): "e0746ecaed3f4dc2d036fd5701e8385c342a5eaaab82d5140df2b1d63ce12b9e",
    ("classes", (2, 3)): "f9490f75b0265b5455ea96e29e7299d1d98bfa2f6d3362ba82897456a9b2d813",
    ("purification", (2, 3)): "487c60f267a9140c1d0444fe042d5752bcfaa148def2c3ef03866eef0df99204",
}

GOLDEN_SEED_1 = {
    ("lu", (2, 2)): "2e08329f7c8e091083ddfee39ab4354bd35e0376713033877b627b8982419e13",
    ("closed", (2, 2)): "7797390c16332076fd7b3f5aea188badef6aa8410ddcea0d932645c583d6ff49",
    ("independence", (2, 2)): "a2fab62577053f0396393e151b05a408918e00ebdfdde64c86b086bf8f33132f",
    ("classes", (2, 2)): "55111c433e73722e18a8264e076ad8ec6a2088272492fb348c20ef8cd677f1de",
    ("purification", (2, 2)): "eb41dd5ce92a46c631102c89a989b34605fa5d32318ee6c6c5d30c64253ffd8d",
}


def digest(suite, dims, seed=0):
    reports = run_suite(suite, seed=seed, dims=dims)
    return hashlib.sha256(reports_to_json(reports).encode()).hexdigest()


@pytest.mark.parametrize("suite,dims", sorted(GOLDEN))
def test_report_is_unchanged(suite, dims):
    assert digest(suite, dims) == GOLDEN[suite, dims]


@pytest.mark.parametrize("suite,dims", sorted(GOLDEN_SEED_1))
def test_seed_1_report_is_unchanged(suite, dims):
    assert digest(suite, dims, seed=1) == GOLDEN_SEED_1[suite, dims]


if __name__ == "__main__":
    for seed, golden in ((0, GOLDEN), (1, GOLDEN_SEED_1)):
        for suite, dims in sorted(golden):
            print(seed, suite, dims, digest(suite, dims, seed))
