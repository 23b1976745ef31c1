"""Shared fixtures: a miniature coherent system used by memory-system tests,
and one serial Fig. 12 run over the applications small enough for tier-1."""

from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.api import Runner
from repro.mem import AddressMap, DirectoryShard, MainMemory, MemoryConfig, PrivateCacheAgent
from repro.noc import NocNetwork, TileRouter
from repro.sim import ClockDomain, Simulator


@dataclass
class MiniSystem:
    """A bare manycore: mesh + directory shards + N private cache agents."""

    sim: Simulator
    clock: ClockDomain
    network: NocNetwork
    config: MemoryConfig
    memory: MainMemory
    address_map: AddressMap
    routers: List[TileRouter] = field(default_factory=list)
    directories: List[DirectoryShard] = field(default_factory=list)
    agents: List[PrivateCacheAgent] = field(default_factory=list)
    extra: Dict = field(default_factory=dict)


def build_mini_system(width=2, height=2, num_agents=2, freq_mhz=1000.0, config=None,
                      topology=None) -> MiniSystem:
    sim = Simulator()
    clock = ClockDomain(sim, freq_mhz, "sys")
    network = NocNetwork(sim, clock, width, height, topology=topology)
    config = config or MemoryConfig()
    memory = MainMemory(config)
    tiles = list(range(width * height))
    address_map = AddressMap(config, home_tiles=tiles)
    routers = [TileRouter(network, node) for node in tiles]
    directories = [
        DirectoryShard(sim, clock, routers[node], address_map, config, memory) for node in tiles
    ]
    agents = [
        PrivateCacheAgent(sim, clock, routers[node], address_map, config, memory, name=f"core{node}")
        for node in range(num_agents)
    ]
    return MiniSystem(
        sim=sim,
        clock=clock,
        network=network,
        config=config,
        memory=memory,
        address_map=address_map,
        routers=routers,
        directories=directories,
        agents=agents,
    )


@pytest.fixture
def mini_system():
    return build_mini_system()


#: The Fig. 12 applications small enough for tier-1; the registry default
#: adds the 8- and 16-processor configurations.
QUICK_FIG12_LABELS = ("tangent", "popcount", "sort/32", "dijkstra",
                      "barnes-hut", "pdes/4", "bfs/4")


@pytest.fixture(scope="session")
def quick_fig12():
    """The serial ``fig12`` ResultSet over :data:`QUICK_FIG12_LABELS`."""
    return Runner().run("fig12", benchmark=QUICK_FIG12_LABELS)
