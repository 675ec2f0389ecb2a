"""Network models shared by the engine-equivalence suites."""

from repro.simmpi import LinkParameters, NetworkModel


def _four_per_node(rank: int) -> int:
    return rank // 4


def two_level_network() -> NetworkModel:
    """Four ranks per node, distinct intra/inter links — clock-sensitive.

    The locator is a module-level function, so the model pickles into the
    sharded engine's worker processes.
    """
    return NetworkModel(
        intra_node=LinkParameters(1e-7, 2e9),
        inter_node=LinkParameters(7e-6, 1e8),
        locator=_four_per_node,
    )
