"""Reference vertex-link rules, slower than the library's and kept to check
them on every input: the link walk as it stood before the two-slot kernel,
the reference for triangulation._link_walk, which Triangulation.validate
(test_corner_table) and Triangulation.vertex_link walk; and the open-path
rule surgery._relinked applied before it was bounded by what a glue
changed.

link_cycle builds a list of neighbours for each link vertex, finds the
vertices of degree other than 2, and walks the cycle (or the path joined
end to end) by reading both neighbours of the current vertex.  On no face
at all it raises ValueError from min() when closed.
"""

from zigzags.triangulation import edge_key


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


def relinked(x, lost, gained, born_edges, edge_faces):
    """Whether the link of x, one cycle before x's lost faces were swapped
    for its gained ones, is one cycle after: the lost faces' link edges make
    a path, and the gained faces' a path between the same ends whose inner
    vertices were no neighbours of x, while the lost path's are no more.
    Both paths are walked whole from the faces alone."""
    old, new = link_cycle(x, lost, closed=False), link_cycle(x, gained, closed=False)
    return (
        old is not None
        and new is not None
        and {old[0], old[-1]} == {new[0], new[-1]}
        and all(edge_key(x, y) in born_edges for y in new[1:-1])
        and all(edge_key(x, y) not in edge_faces for y in old[1:-1])
    )
