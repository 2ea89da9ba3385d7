"""The pinched-vertex check as it stood before the corner walk, kept as a
reference for eulerian._pinched_vertices (see test_corner_walk).

It builds, for every vertex, a dict sending each arc at the vertex to the
arcs the corners there join it to, and counts the components of that
graph by repeated searches from the least arc left.  It needs what the
library's check needs: every face cycle simple and every arc on two of
them.
"""

from zigzags.triangulation import _reachable


def pinched_vertices(emb) -> list[str]:
    corners = {v: {} for v in emb.vertices}
    for _, cyc in emb.face_cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            at = corners[a[1]]
            at.setdefault(a, []).append(b)
            at.setdefault(b, []).append(a)
    out = []
    for v, at in corners.items():
        left, cycles = set(at), 0
        while left:
            left -= _reachable(min(left), at.__getitem__)
            cycles += 1
        if cycles > 1:
            out.append(f"the corners at vertex {v!r} form {cycles} cycles, not one")
    return out
