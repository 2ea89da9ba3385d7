"""Zigzag structure of surface triangulations.

Enumerate the zigzags (closed left-right walks) of a simplicial surface,
classify edges, vertices, and faces under a z-orientation, convert
homogeneous orientations to and from directed Eulerian embeddings, glue
z-knotted triangulations along special pairs, and build arbitrarily large
z-knotted spheres from labeled trees of bipyramids.
"""

from . import engine, eulerian, generators, surgery, triangulation
from .engine import *  # noqa: F403
from .eulerian import *  # noqa: F403
from .generators import *  # noqa: F403
from .surgery import *  # noqa: F403
from .triangulation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *engine.__all__,
    *eulerian.__all__,
    *generators.__all__,
    *surgery.__all__,
    *triangulation.__all__,
    "__version__",
]
