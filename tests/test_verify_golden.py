"""Golden verify reports.

Each digest is the sha256 of reports_to_json(run_suite(suite, dims=dims)) at
the default seed, for the five suites that run numeric checks.  The reports
carry residuals to the last bit, so the digests pin the sampling, the
batching and every engine's rounding; they were computed with numpy's
OpenBLAS build on x86-64, and another BLAS may round differently.  Run this
file as a script to print the digests of the luinv on the import path.
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


def digest(suite, dims):
    return hashlib.sha256(reports_to_json(run_suite(suite, dims=dims)).encode()).hexdigest()


@pytest.mark.parametrize("suite,dims", sorted(GOLDEN))
def test_report_is_unchanged(suite, dims):
    assert digest(suite, dims) == GOLDEN[suite, dims]


if __name__ == "__main__":
    for suite, dims in sorted(GOLDEN):
        print(suite, dims, digest(suite, dims))
