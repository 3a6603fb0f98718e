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
    ("fig4b", "evolve_0p3mV.csv"): "ac44e138ed945a85720f0d4fa5e4da964c322a3f553a0280a76dee1bc9b19426",
    ("fig4b", "evolve_0p6mV.csv"): "90090ee2fb8199c811da5df9055e1e6fe5b931e0e46a3b8fc790344831984e36",
    ("fig4b", "evolve_1p2mV.csv"): "eb7eee88818ff57f407e00877e1f9098d981f739602031d1b6393cf1063601c4",
    ("fig4b", "temps_0p3mV.csv"): "ea1fa2ba7c6238a7b388bb6e3e3f352b4983628fd9574c9ec2e3e574d6fdd121",
    ("fig4b", "temps_0p6mV.csv"): "cdddb0ca97f60e592b7abddf7a25e20fd5bdf99eed1aa79f06006866552bf591",
    ("fig4b", "temps_1p2mV.csv"): "1fcc5dd1e38eba0b218451ca25a06c8de95e8c767754ebaf00a3d2f83f6daece",
    ("fig4b", "thermo_0p3mV.csv"): "d536c5e82e91161c25dd31eeda093298e0d5b8964f1d682922755d25d7a15e6e",
    ("fig4b", "thermo_0p6mV.csv"): "d3157a22edbbbaf337d8ebfb3ab270f7c58eae153d8d93400f320580ad032ec6",
    ("fig4b", "thermo_1p2mV.csv"): "bbd8c4d332874ff4697dacc68888bbc1312820d3e95400461f700573a0028bf6",
    ("full", "evolve.csv"): "963cbfe33cba7234d1ec37cd8e878ed48076d28fc54fef84350819bdb7c7e63f",
    ("full", "populations.csv"): "765e314508c95e06f29b6d4c32b91cdadf73e1bcea48bec0cb48907ac3572c5f",
    ("full", "rates.csv"): "7c30003c7e76f570298eacb6cd9e806eaa3f572545d2cacd2eebc0becf6b3d6c",
    ("full", "shots.csv"): "fd0323e123881ea203d3adbf05effcb2b102f8046b5988e332cfc23c50c85c78",
    ("full", "thermo.csv"): "2c47a190784ef9e6a9ca3520b745ff68abed7d3448e5523ed64ad1c4e762e5cc",
    ("otto-demo", "otto.csv"): "002291dfafca4c4c623c695ed1589769b13d64bbfa723cfc62776ea41159d019",
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
