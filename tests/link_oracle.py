"""The vertex-link walk as it stood before the two-slot kernel, kept as a
reference for triangulation._link_cycle and for the corner walk that
Triangulation.validate checks each link with (test_corner_table).

It builds a list of neighbours for each link vertex, finds the vertices of
degree other than 2, and walks the cycle (or the path joined end to end)
by reading both neighbours of the current vertex.  It is slower than the
kernel and must give the same walk, or None, on every input, closed or
open, a link or not, but one: on no face at all it raises ValueError from
min() when closed, where the kernel returns None.
"""


def link_cycle(v, faces, closed=True):
    adj = {}
    for a, b, c in faces:
        x, y = (b, c) if a == v else (a, c) if b == v else (a, b)
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    # a cycle has no vertex off degree 2, a path just two ends of degree 1
    ends = [x for x, nb in adj.items() if len(nb) != 2]
    if closed:
        if ends:
            return None
    elif len(ends) != 2 or len(adj[ends[0]]) != 1 or len(adj[ends[1]]) != 1:
        return None
    start = min(ends) if ends else min(adj)
    walk = [start, min(adj[start])]
    if ends:
        # joined end to end the path is a cycle, which the one loop walks
        end = max(ends)
        adj[start].append(end)
        adj[end].append(start)
    while True:
        a, b = adj[walk[-1]]
        step = b if a == walk[-2] else a
        if step == start:
            break
        walk.append(step)
    # the walk misses any other cycle the link splits into
    return tuple(walk) if len(walk) == len(adj) else None
