"""The bitstream-image golden: every generated image, pinned byte for byte.

The determinism tests only check that two generations agree with each
other.  This golden pins the images themselves — the sha256 of the
payload plus ``crc``, ``config_bits``, ``region_bits`` and
``region_crcs`` — for the four catalog designs, the ``quad`` region plans
at two grid sizes and two fabric scales, and the image a Duet system
installs for a Fig. 12 accelerator.  Any change to how images are
generated has to leave every one of them where it was.

Regenerate only after an intentional output change, with::

    PYTHONPATH=src python -c "
    import json, sys; sys.path.insert(0, 'tests')
    from test_bitstream_golden import IMAGES, image_record
    json.dump({name: image_record(build()) for name, build in IMAGES.items()},
              open('tests/data/bitstream_golden.json', 'w'),
              indent=2, sort_keys=True)"
"""

import hashlib
import json
import os

import pytest

from repro.accel.popcount import PopcountAccelerator, register_layout
from repro.platform.config import SystemKind
from repro.reconfig.plan import RegionPlan
from repro.serve.catalog import SERVE_ACCELERATORS, materialize
from repro.serve.experiments import get_mix
from repro.workloads.common import WorkloadParams, build_benchmark_system

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "bitstream_golden.json")


def image_record(bitstream):
    return {
        "sha256": hashlib.sha256(bitstream.data).hexdigest(),
        "crc": bitstream.crc,
        "config_bits": bitstream.config_bits,
        "region_bits": (list(bitstream.region_bits)
                        if bitstream.region_bits is not None else None),
        "region_crcs": (list(bitstream.region_crcs)
                        if bitstream.region_crcs is not None else None),
    }


def _catalog_image(name):
    return lambda: materialize(name).bitstream


def _plan_image(name, regions, fabric_scale):
    def build():
        accelerators = {spec.accelerator: materialize(spec.accelerator)
                        for spec in get_mix("quad")}
        plan = RegionPlan.build(accelerators, regions,
                                fabric_scale=fabric_scale)
        return plan.images[name]
    return build


def _dolly_install_image():
    system = build_benchmark_system(
        SystemKind.DUET, WorkloadParams(num_processors=1, num_memory_hubs=1))
    system.install_accelerator(PopcountAccelerator(),
                               registers=register_layout())
    return system.adapter.control_hub.programmed_bitstream


IMAGES = {f"catalog/{name}": _catalog_image(name) for name in SERVE_ACCELERATORS}
IMAGES.update({
    f"plan/quad/r{regions}/s{fabric_scale}/{spec.accelerator}":
        _plan_image(spec.accelerator, regions, fabric_scale)
    for regions in (2, 4)
    for fabric_scale in (1.0, 0.6)
    for spec in get_mix("quad")
})
IMAGES["dolly/fig12/popcount"] = _dolly_install_image


def test_golden_covers_every_image():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(IMAGES)


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_image_matches_golden(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    bitstream = IMAGES[name]()
    assert bitstream.verify()
    assert image_record(bitstream) == golden[name]
