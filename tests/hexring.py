"""Hex discs of grid cells, for building test graphs."""
from repro.hexgrid.hex import HexGrid, pack, unpack


def k_ring(grid: HexGrid, cell: int, k: int) -> list[int]:
    """All cell ids within hex distance ``k`` of ``cell`` (incl. itself)."""
    _, q0, r0 = unpack(cell)
    q0, r0 = int(q0), int(r0)
    out = []
    for dq in range(-k, k + 1):
        for dr in range(max(-k, -dq - k), min(k, -dq + k) + 1):
            out.append(int(pack(grid.res, q0 + dq, r0 + dr)))
    return out
