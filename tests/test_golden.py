"""Golden products: the sha256 of every CSV the five presets write at seed 0.

The digests pin the byte identity of the figure products across
refactors and optimisations, not only the same-commit determinism that
acceptance criterion 9 checks.  They depend on the floating-point
results of NumPy and its BLAS: an upgrade of either may legitimately
move them.  A change that moves any digest, for that reason or any
other, says so in CHANGES.md with the files and the size of the change.
"""

import hashlib

import pytest

from qcrsim.cli import PIPELINE_PRESETS, main

GOLDEN = {
    ("fig3d", "populations.csv"): "9bf61b8fda26a4682f8306167d47e2c7097129f0e523a87a875e93dfa160031a",
    ("fig3d", "shots.csv"): "46bfb6d638f7c35c52da926035b5121f96f056504df261e1dc320178d6f3dadb",
    ("fig3d", "shots_calibration.csv"): "b40a0ed05eecc61dc426a100fad6a1d8c17b1a81d6b640b2b4e5f85a74092564",
    ("fig3d", "thermo.csv"): "490acfe5a954da5bf92c00bd7dbffd4c616e69f4dad1c94a6d7e4dbfd7611520",
    ("fig4a", "sweep_populations.csv"): "b2d5805844498057bfc8c57516e63e9a978970b4d273e4230b1a72f8863589df",
    ("fig4a", "thermo.csv"): "b0c89f03b0959dd734841643e8d015623c56374fc31f7d49a376875e89ff9f4d",
    ("fig4b", "evolve_0p3mV.csv"): "0ca380a962db85a6fde31b88228d770ab467f6f5522af8786c28426c1e587753",
    ("fig4b", "evolve_0p6mV.csv"): "78525aa82adce080089ad2a2ed9a4bb10a6aee21f1444df87ddd2114f76f87c5",
    ("fig4b", "evolve_1p2mV.csv"): "9e3a5b534deafb9ade0b807fd89ed464f684dfd5b99ef87f5e9c920969dde9f1",
    ("fig4b", "temps_0p3mV.csv"): "a77790bb1d93d7a609e679034e85b25115d54d091d8d9dd08a01a3305ba7a4ba",
    ("fig4b", "temps_0p6mV.csv"): "7fcbf16a45421f51dd18038ae81899e36b05c27640e1bd85648fa7ab0c753cc7",
    ("fig4b", "temps_1p2mV.csv"): "ec2451381706a3112b477955e33f9713d9d9752c5ba14faf6d19dd1814ae2d4f",
    ("fig4b", "thermo_0p3mV.csv"): "5518276b35557cba2e4e91b9afe972eed4979f6a2c150744436f20d8a60c9e41",
    ("fig4b", "thermo_0p6mV.csv"): "4a16a0593dd13be8439d3a0a322d33e3549214386e1d6fa787d8db1694fd774f",
    ("fig4b", "thermo_1p2mV.csv"): "b713a13b154949df2f053ab48c839788dac57c9e8ede8a8ad67efb7cfae8b818",
    ("otto-demo", "otto.csv"): "7c0929758d5aa3a76014c5b790c4f68e98e456f1f01e91c2f7037b27e38c4762",
    ("full", "evolve.csv"): "af3368f19a49e756ad122bf7a06f5bcbc596e99d4b1cb5d87b5d4d8b507817ce",
    ("full", "populations.csv"): "52c7f2ccf30192da9c4072e50834eeeffdb3a38c13b2d9a0e4832cc9201b7f9f",
    ("full", "rates.csv"): "b12deec1fd98bc4e8195e11e504145f8d805955d90583025f5e9bcc9f701f88e",
    ("full", "shots.csv"): "fd0323e123881ea203d3adbf05effcb2b102f8046b5988e332cfc23c50c85c78",
    ("full", "thermo.csv"): "adfaf919dbd5cdc97600595a5b6ac5c64dbc2f8cde5db1a472774bf72ff098c3",
}


@pytest.mark.parametrize("preset", sorted(PIPELINE_PRESETS))
def test_preset_csvs_match_golden_digests(tmp_path, preset):
    assert main(["pipeline", preset, "--seed", "0", "--outdir", str(tmp_path)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.csv")
    }
    expected = {name: digest for (p, name), digest in GOLDEN.items() if p == preset}
    assert written == expected
