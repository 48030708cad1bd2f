"""Golden fingerprints of the deterministic output.

Each suite's JSON report at its default config, with every ``elapsed_ms``
removed, and the ``compare-bases`` report for each supported gap are pinned
by SHA-256, as are the symbolic ``unramified`` report and the ``xi`` output
for spherical rank-three data and for one random rank-two datum.  A
refactor that keeps these hashes keeps every verdict, witness, echoed
parameter and serialized polynomial byte for byte.  A change that is meant
to alter the output must update the hashes and say why.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from paramodular.cli import VerifyConfig, emit, main, run_suite
from paramodular.oldforms import compare_bases
from paramodular.sampling import case_rng, random_whittaker_data
from paramodular.whittaker import spherical_so_data

SUITE_SHA256 = {
    "unramified": "065f2a6aa84ece3a0fbb71a22aeb72ab8835e37618162206880b051be13a1d96",
    "gsp4-raising": "d1ab1b0bc8328de6deac817c41d873ece387fdb96e6e6ab2c8cc9d78456edf75",
    "eta-lemma": "ef66b4c49e8132cd625e00db56a997eb3ba9ed4c131ee29eeb2b99f185bb1f3c",
    "dims": "d9d423360867ecfc1070152b041993fd09e4ffb91cf0f86028a922db5449986d",
    "prop4": "c848cdeef207c46cbc57b6a77a21b1307dcb199ae7d71f55e495759c3465dd55",
    "level-a1": "d09fc37047b20fd7587ea37a32697bf631124926183893e3c10b92b49f9da036",
    "oldform-bases": "9e89bcbaaacd2aa6ce2c379685803480b74a74295a50deeff7d4709d4e04c897",
    "dependence": "5f46b99981812c276daa6efe90074a13df348e9a2b535e27af874b474c65c9db",
    "kernel": "ab0fae901020cc661e0ff8ef19cb3a0cda9056fa41be08fe474da8afd3fd3b08",
    "fe": "7dad1192379063c0f08bd42e497deecb3cc962994b98b01e6a38d2791f138c3e",
    "psi-modes": "7891a4e12c41c6a68cf7da702cf5b53c83d9d776c782772110a0668a59ee3fde",
}

COMPARE_BASES_SHA256 = {
    0: "c525fd195455c6af97e886e4fff8063a9cc28bed50ecf3528ae1d759215a64ea",
    1: "a55e6fbba55d5bb5df153343fc16e1e14c22963233143b52675fc15165192fb0",
    2: "c5c9a15cbbd25d68ce1143b3303d0613333954defd57405f92771ce56118e730",
    3: "b07b20e18ffb5b47b1f232347ca2d317fae302c547811e8e688de01088bb13a6",
    4: "e6498b9febe7aa674d1e2a8fe1fcadfbddac66f0e1ce112ac9d9a306f79f0168",
}

SYMBOLIC_UNRAMIFIED_SHA256 = "c15425b4b4d2ef9c249f9828bc6fa2790ac6f7af163fc46513eb2d7819416abf"

# xi output for: spherical n = 3 data of BETA3 cut at trace 8, and one
# random n = 2 datum, with and without a beta
BETA3 = (Fraction(2), Fraction(-3, 5), Fraction(7, 4))
XI_SHA256 = {
    "spherical-3": "0879bf8f761f2cead5b849a21768c95bf56399c681362dcf8239d29d1b3fe4f5",
    "random-2": "c871b6950cf663ad9d3284971323aa4f103a0de2517e82232ef39e8dbfa3fca9",
    "random-2-beta": "67d068583417496345b9ce37b8f4cd9670eea4a75499b668bfb3082f3e0cddb7",
}
XI_ARGV = {
    "spherical-3": ["--r", "3", "--beta", "2,-3/5,7/4", "--trunc", "8"],
    "random-2": ["--r", "2"],
    "random-2-beta": ["--r", "2", "--beta", "2,-3/5"],
}


def sha256_of(blob) -> str:
    text = json.dumps(blob, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def report_sha256(config: VerifyConfig) -> str:
    report = json.loads(emit(run_suite(config), "json"))
    assert report["all_passed"]
    for case in report["cases"]:
        del case["elapsed_ms"]
    return sha256_of(report)


@pytest.mark.parametrize("suite", sorted(SUITE_SHA256))
def test_suite_report_fingerprint(suite):
    assert report_sha256(VerifyConfig(suite=suite)) == SUITE_SHA256[suite]


def test_symbolic_unramified_report_fingerprint():
    config = VerifyConfig(suite="unramified", mode="symbolic")
    assert report_sha256(config) == SYMBOLIC_UNRAMIFIED_SHA256


@pytest.mark.parametrize("case", sorted(XI_SHA256))
def test_xi_output_fingerprint(case, tmp_path, capsys):
    if case == "spherical-3":
        d = spherical_so_data(BETA3, 3, 8)
    else:
        d = random_whittaker_data(case_rng(0, "xi-fingerprint"), 2)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(d.to_json()))
    assert main(["xi", "--data", str(path), *XI_ARGV[case]]) == 0
    assert sha256_of(json.loads(capsys.readouterr().out)) == XI_SHA256[case]


@pytest.mark.parametrize("gap", sorted(COMPARE_BASES_SHA256))
def test_compare_bases_fingerprint(gap):
    assert sha256_of(compare_bases(gap)) == COMPARE_BASES_SHA256[gap]
