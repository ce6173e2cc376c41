"""Preset outputs: every preset's CSV holds its recorded bytes at the default seed."""

import hashlib

import pytest

from craoi.experiments import DEFAULT_SEED, PRESETS, run_preset

# sha256 of each preset's CSV at DEFAULT_SEED, fig4 at its default 10**6 slots.
# A change to any of these is a change to the reproduced figures and tables.
PRESET_SHA256 = {
    "fig3": "d400526d8fecd7d554231e8d67846cb18bf7534327bfd6c81ab5c1bc2c213a94",
    "fig4": "fb7416d9e266f3fdf43916d02415df00c3a2469d41c306629ea7b378b055dbe4",
    "fig5": "7e94a3e11aa120201abefad215131983d398b8465173cc56c4ea7b3123a762cf",
    "fig6": "9bc931b9e78c6e6a3daeaa08093c302fdfcbcfc76d503859fb51d4aa6aad5966",
    "fig7": "c9ebc472b13fe4ac04232face2f044090c5ae3bdc10df64dd10cf15ec0ea8983",
    "fig8": "b36686aea0f85af42a55f70e564fc77442aca6ab234bd950b081d6fcc4bbed43",
    "table1": "7449c94580e8440e42985801028d309b100b8e50601e1f9d2c7931dd797608bd",
}


@pytest.mark.parametrize("name", PRESETS)
def test_preset_csv_bytes(name, tmp_path):
    path = run_preset(name, tmp_path, seed=DEFAULT_SEED)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PRESET_SHA256[name]
