"""Writers for the two non-native input formats that ``dpcolor.io`` reads."""

from __future__ import annotations

from dpcolor import PlaneGraph


def graph6(g: PlaneGraph) -> str:
    """graph6 text of the abstract graph (n <= 62)."""
    n = g.vertex_count
    if n > 62:
        raise ValueError("graph6 writer handles n <= 62 only")
    edges = set(g.edges())
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body + "\n"


def planar_code(g: PlaneGraph) -> bytes:
    """planar code with header: n, then each rotation (1-based), 0-terminated."""
    n = g.vertex_count
    if n > 255:
        raise ValueError("1-byte planar code holds n <= 255 only")
    out = bytearray(b">>planar_code<<")
    out.append(n)
    for rot in g.rotations:
        out.extend(u + 1 for u in rot)
        out.append(0)
    return bytes(out)
