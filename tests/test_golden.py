"""Golden products: the sha256 of every CSV the five presets write at seed 0.

The digests pin the byte identity of the figure products across
refactors and optimisations, not only the same-commit determinism that
acceptance criterion 9 checks.  They depend on the floating-point
results of NumPy and its BLAS: an upgrade of either may legitimately
move them.  A change that moves any digest, for that reason or any
other, says so in CHANGES.md with the files and the size of the change.

``PYTHONPATH=src python tests/test_golden.py`` prints the ``GOLDEN``
table of the working tree, ready to paste over the one below.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from qcrsim.cli import PIPELINE_PRESETS, main

GOLDEN = {
    ("fig3d", "populations.csv"): "f666883c39c2bc060345eb17228cbe2995a2eb333b48df9e90255b3ae154f951",
    ("fig3d", "shots.csv"): "46bfb6d638f7c35c52da926035b5121f96f056504df261e1dc320178d6f3dadb",
    ("fig3d", "shots_calibration.csv"): "b40a0ed05eecc61dc426a100fad6a1d8c17b1a81d6b640b2b4e5f85a74092564",
    ("fig3d", "thermo.csv"): "bb2accc4d403f885257a8bfe1bd55ef7f01808182e2b234e7ade4b1e6856d149",
    ("fig4a", "sweep_populations.csv"): "b2d5805844498057bfc8c57516e63e9a978970b4d273e4230b1a72f8863589df",
    ("fig4a", "thermo.csv"): "9dcca2084f80e8d55e2efc0da3e461fadde0d9815cd53dac35292d0838a7adf6",
    ("fig4b", "evolve_0p3mV.csv"): "d5d9bb15ef9dfb9c5811a8b1655712caf0b3ee5984d1dd4c12d15a5f6d910ab8",
    ("fig4b", "evolve_0p6mV.csv"): "b7cefff4227b493608266895145ae9158fe16a8b091a6b578b0f5608fd42578b",
    ("fig4b", "evolve_1p2mV.csv"): "6523cf5819319bb744bbf7e7ab96bffc6bacc4714a3ef55b534d862aa913ed94",
    ("fig4b", "temps_0p3mV.csv"): "a77790bb1d93d7a609e679034e85b25115d54d091d8d9dd08a01a3305ba7a4ba",
    ("fig4b", "temps_0p6mV.csv"): "7fcbf16a45421f51dd18038ae81899e36b05c27640e1bd85648fa7ab0c753cc7",
    ("fig4b", "temps_1p2mV.csv"): "ec2451381706a3112b477955e33f9713d9d9752c5ba14faf6d19dd1814ae2d4f",
    ("fig4b", "thermo_0p3mV.csv"): "3b477ea0bfead3f6fd44b4ebebef5ffbd12d16ef89a50403ea5d360100abc4ba",
    ("fig4b", "thermo_0p6mV.csv"): "bd8b0d18c539eb46c19462b4d6195e61ad255cae885308d0d280e63303c61bdf",
    ("fig4b", "thermo_1p2mV.csv"): "c7ec4449a3976e85453fb898fdd0057105e3ea4fe1947ff09e2f8aea0926c99b",
    ("full", "evolve.csv"): "1cae8dd028a851ddc2ed49526f4c589f546489e0267c03a6241915780bb0c69a",
    ("full", "populations.csv"): "6b79424c81d641086be6e8d2bdaf7b9bc70df3b3aafc54c35f6a94e693717995",
    ("full", "rates.csv"): "b12deec1fd98bc4e8195e11e504145f8d805955d90583025f5e9bcc9f701f88e",
    ("full", "shots.csv"): "fd0323e123881ea203d3adbf05effcb2b102f8046b5988e332cfc23c50c85c78",
    ("full", "thermo.csv"): "4f23cc57ffd71a607bdd39d17d581e00fd3aa1b9d78bdb06c39ac1c49caca027",
    ("otto-demo", "otto.csv"): "7c0929758d5aa3a76014c5b790c4f68e98e456f1f01e91c2f7037b27e38c4762",
}


def preset_digests(preset, outdir):
    """sha256 of each CSV that ``pipeline <preset> --seed 0`` writes."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", preset, "--seed", "0", "--outdir", str(outdir)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in outdir.glob("*.csv")
    }


@pytest.mark.parametrize("preset", sorted(PIPELINE_PRESETS))
def test_preset_csvs_match_golden_digests(tmp_path, preset):
    expected = {name: digest for (p, name), digest in GOLDEN.items() if p == preset}
    assert preset_digests(preset, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for preset in sorted(PIPELINE_PRESETS):
            written = preset_digests(preset, Path(tmp) / preset)
            for name, digest in sorted(written.items()):
                print(f'    ("{preset}", "{name}"): "{digest}",')
        print("}")
