import numpy as np
import pytest

from jigglekit.cli import box_grid, unit_square_grid
from jigglekit.engine import JigglingConfig, jiggle_euclidean
from jigglekit.grassmann import Plane
from jigglekit.plmaps import PLMap
from jigglekit.transversality import Distribution


@pytest.fixture(scope="session")
def jiggled_meshes():
    """Jiggled output meshes of two benchmark-sized runs, as ``{name:
    (complex, images)}``: the level-4 tower cell of ``unit_square_grid(2)``
    (2,048 triangles) and ``box_grid(1)`` at level 2 (384 tetrahedra), both
    against a constant line field along the first axis."""
    meshes = {}
    for name, grid, level in (("tower-4", unit_square_grid(2), 4),
                              ("box-2", box_grid(1), 2)):
        basis = np.eye(grid.ambient_dim)[:1]
        xi = Distribution.constant(Plane(basis))
        out = jiggle_euclidean(PLMap.identity(grid), grid, xi,
                               JigglingConfig(gamma=0.2, level=level))
        meshes[name] = (out.out_complex, np.array(out.plmap.images))
    return meshes
