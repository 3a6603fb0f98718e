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
    ("fig4b", "evolve_0p3mV.csv"): "1f7a919c0e22861563fb8426898a82878c63d67f4014f9255faa222dfd2542b0",
    ("fig4b", "evolve_0p6mV.csv"): "f8bbf5889d30ee86978abc5f3af28433b93da893b6d2b2c1ab449192da1640ba",
    ("fig4b", "evolve_1p2mV.csv"): "7057db6b540d893aa838e342da30a896e154d361f8ab3a7b4abd03655d575190",
    ("fig4b", "temps_0p3mV.csv"): "6db3c8396a8055ee6bfcfd3d1d96b510dfaec96cdfd37914161866c67f765eec",
    ("fig4b", "temps_0p6mV.csv"): "83f59d51b6351b494b8ace10e7cb01cea67a89e4869558a1afccc6723db67d3a",
    ("fig4b", "temps_1p2mV.csv"): "0db9503b61bcec639d5fa944e9ed5d2621246d27e70a713a0ee3ac9718dcaa4c",
    ("fig4b", "thermo_0p3mV.csv"): "90932451639fb4873dc342cf4e26e3685eaa3c42fb322bc09b3f4d25561ef02c",
    ("fig4b", "thermo_0p6mV.csv"): "e1960b2f8f50fd4e15965f95e49957e78cfeb26e5d5b529a7ec162689a2a9edd",
    ("fig4b", "thermo_1p2mV.csv"): "09860ad6cde6d0647ae119dd63bfcf9ab0afb82eb738ebb4f54c04b1176ad546",
    ("full", "evolve.csv"): "28b47600a5a4b0057c81be14713afdda8677e8d6812a95e6b075568e9b08b65e",
    ("full", "populations.csv"): "765e314508c95e06f29b6d4c32b91cdadf73e1bcea48bec0cb48907ac3572c5f",
    ("full", "rates.csv"): "104602de417117afe40c16247b3a61f5e2625cbd34b0e08f302f1c1fc67b8e2f",
    ("full", "shots.csv"): "fd0323e123881ea203d3adbf05effcb2b102f8046b5988e332cfc23c50c85c78",
    ("full", "thermo.csv"): "2c47a190784ef9e6a9ca3520b745ff68abed7d3448e5523ed64ad1c4e762e5cc",
    ("otto-demo", "otto.csv"): "82ef804a6acc2a2fd03877ffc174a0ad9e3f2e5192791feb0e3a079f79058720",
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
