"""The constructor's index sweep as it stood before each vertex's faces
grew in a list, kept as a reference for Triangulation.__init__ (see
test_incidence_indexes).

It sweeps the face keys in sorted order and grows every cell's faces as a
tuple, one concatenation per face, so a vertex of degree d costs O(d^2).
It must give the same face tuple, the same edge and vertex indexes, in the
same dict order, and the same sorted vertices and edges on every input.
"""

from zigzags import face_key


def indexes(faces) -> dict:
    """faces, edge_faces, vertex_faces, vertices and edges as the sweep
    builds them from a list of faces."""
    stored = tuple(face_key(*f) for f in faces)
    edge_faces: dict = {}
    vertex_faces: dict = {}
    cell, star = edge_faces.get, vertex_faces.get
    for f in sorted(stored):
        a, b, c = f
        for v in f:
            vertex_faces[v] = star(v, ()) + (f,)
        for e in (a, b), (a, c), (b, c):
            edge_faces[e] = cell(e, ()) + (f,)
    return {
        "faces": stored,
        "edge_faces": edge_faces,
        "vertex_faces": vertex_faces,
        "vertices": tuple(sorted(vertex_faces)),
        "edges": tuple(sorted(edge_faces)),
    }
