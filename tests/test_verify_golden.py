"""Golden verify reports.

Each digest is the sha256 of reports_to_json(run_suite(suite, seed, dims)),
for the five suites that run numeric checks: GOLDEN at the default seed 0,
GOLDEN_SEED_1 at seed 1.  The reports carry residuals to the last bit, so the
digests pin the sampling, the batching and every engine's rounding; they
were computed with numpy's OpenBLAS build on x86-64, and another BLAS may
round differently.  The seed-1 digests were computed before the verify
suites shared their samples through one table per run, so they pin the
output of the unshared draws.  Run this file as a script to print the
digests of the luinv on the import path.
"""

import hashlib

import pytest

from luinv.verify import reports_to_json, run_suite

GOLDEN = {
    ("lu", (2, 2)): "39d0a4b336eb847b11e3c0fbc66df15043cf9e4134f07f7996c7fc49b5c06541",
    ("closed", (2, 2)): "629e7e51644ab843ff51dbde8b07b46a2e350b08156c471fef5ea73d232e9c3b",
    ("independence", (2, 2)): "7ac7e082419059d04f78adf504ccf6fc9e9e3ed5120c296de3cd393adeb47e57",
    ("classes", (2, 2)): "5b38e39bbc6cfa77adbee7d5294a4674f46d194b3aa753de0acdb8ca64b6dbec",
    ("purification", (2, 2)): "e97a69b138970de4b1de411d94d6b42545f87ceb1ea795163178e820c738dde2",
    ("lu", (2, 3)): "7bb7aa4cf00e3c140ebce6c9ad8d7be43bebb9904ec8b6d47aca480050118da3",
    ("closed", (2, 3)): "388e02351c490d9f35e075801d23865eeeccf15502c73b4ff3fdbd5321474715",
    ("independence", (2, 3)): "1756ff62b8dea559adc02c91f5ff3d4343a70d1f2c90e4ccc26ee276cfbd6403",
    ("classes", (2, 3)): "00d8225cdcedd8a8b86697aab71938a8b49a00e6111a74934f61c62b4c6a9790",
    ("purification", (2, 3)): "029128ecfd219120d7b4c018289d390693eb49eda01c9fdd9259e8dcbd538167",
}

GOLDEN_SEED_1 = {
    ("lu", (2, 2)): "a489f78b7271ce6dd36223744b01694446b280eeb8e19fcbfebcb2a849371ccc",
    ("closed", (2, 2)): "3a52d7c581b9a5237e9cbca183d5627aa667b09ca58176ea02cde3aa5001c007",
    ("independence", (2, 2)): "5b8a6289eb672747ffa4cbd26cc00e29a49bc7cf668863529080ddd86ff9701d",
    ("classes", (2, 2)): "021c345976ef2bf5e3adf5e912e10e3439852a0e8a615b1b29fdb12fc268084d",
    ("purification", (2, 2)): "c30698ab04fc50b9e16d8736f7d27cb045958f1aebdaaa42d29651f60807a4d6",
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
