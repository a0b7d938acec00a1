"""Margin-maximizing vertex perturbation.

The core primitive moves one point inside a budget ball (optionally pinned to
an affine flat H) so that its projections into one or more quotient spaces
avoid finitely many affine flats, maximizing the worst-case clearance.  On
top of that, ``perturb_vertex`` runs the dimension induction: joins with
0-dimensional pieces of the star first, then 1-dimensional ones, and so on,
each stage searching inside the clearance ball of the previous stage so the
final ball is nested in all earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    InfeasibleDimensions,
    PreconditionViolated,
    StarNotTransverse,
)
from .grassmann import (
    AffineFlat,
    Plane,
    affine_span,
    is_transverse_planes,
    plane_from_spanning,
    point_flat_distance,
    project_along,
)
from .transversality import semitrans_margin, simplex_transverse

REFINE_ROUNDS = 3
REFINE_STEPS = (0.25, 0.08, 0.02)


# ---------------------------------------------------------------------------
# requests and results
# ---------------------------------------------------------------------------

@dataclass
class PerturbationRequest:
    point: np.ndarray
    epsilon: float
    star_simplices: list = field(default_factory=list)
    foliations: list = field(default_factory=list)
    star_foliations: list | None = None
    constraint_flat: AffineFlat | None = None
    seed: int = 0
    samples: int = 64

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.star_simplices = [np.atleast_2d(np.asarray(s, dtype=float))
                               for s in self.star_simplices]
        if self.epsilon <= 0:
            raise PreconditionViolated("perturbation budget must be positive")


@dataclass
class PerturbationResult:
    point: np.ndarray
    achieved_delta: float
    moved: float
    per_dimension_margins: dict
    certificate: list


# ---------------------------------------------------------------------------
# the ball search
# ---------------------------------------------------------------------------

def _project_flat(v: Plane | None, flat: AffineFlat) -> AffineFlat:
    if v is None:
        return flat
    base = project_along(v, flat.base)
    if flat.direction is None:
        return AffineFlat(base, None)
    dirs = project_along(v, flat.direction.basis)
    norms = np.linalg.norm(dirs, axis=1)
    keep = dirs[norms > 1e-12]
    if len(keep) == 0:
        return AffineFlat(base, None)
    return AffineFlat(base, plane_from_spanning(keep))


def _search_basis(ambient: int, constraint: AffineFlat | None) -> np.ndarray:
    if constraint is None or constraint.direction is None:
        return np.eye(ambient)
    return constraint.direction.basis


def avoid_flats(p, epsilon: float, flats, quotients=None,
                constraint_flat: AffineFlat | None = None,
                seed: int = 0, samples: int = 64):
    """Move p within an epsilon-ball to clear a list of affine flats.

    ``flats[i]`` is avoided inside the quotient by ``quotients[i]`` (a Plane,
    or None for the ambient space).  The returned pair ``(p', delta)``
    satisfies the nested-ball contract: |p'-p| + delta <= epsilon, and the
    open ball of radius delta around each projection of p' misses its flat.
    delta is the best clearance the seeded search found, not a supremum.
    """
    point = np.asarray(p, dtype=float)
    flats = list(flats)
    if quotients is None:
        quotients = [None] * len(flats)
    if len(quotients) != len(flats):
        raise PreconditionViolated("flats and quotients must pair up")

    basis = _search_basis(point.shape[0], constraint_flat)
    ndof = basis.shape[0]
    tasks = []
    for flat, quot in zip(flats, quotients):
        proj_flat = _project_flat(quot, flat)
        proj_basis = basis if quot is None else project_along(quot, basis)
        s = np.linalg.svd(proj_basis, compute_uv=False)
        search_dim = int(np.sum(s > 1e-9 * max(s[0], 1.0))) if s.size else 0
        if proj_flat.dim >= search_dim:
            raise InfeasibleDimensions(
                f"flat of dimension {proj_flat.dim} fills the "
                f"{search_dim}-dimensional projected search domain"
            )
        tasks.append((quot, proj_flat))

    def clearance(q: np.ndarray) -> float:
        worst = np.inf
        for quot, proj_flat in tasks:
            qq = q if quot is None else project_along(quot, q)
            worst = min(worst, point_flat_distance(qq, proj_flat))
        return worst

    def objective(q: np.ndarray) -> float:
        return min(epsilon - float(np.linalg.norm(q - point)), clearance(q))

    best_q = point
    best_val = objective(point)
    if tasks:
        rng = np.random.default_rng([seed, 2026])
        dirs = rng.normal(size=(samples, ndof))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        radii = epsilon * rng.uniform(0.0, 1.0, size=samples) ** (1.0 / max(ndof, 1))
        offsets = (dirs / norms[:, None]) * radii[:, None]
        for off in offsets:
            q = point + off @ basis
            val = objective(q)
            if val > best_val:
                best_q, best_val = q, val
        for step in REFINE_STEPS:
            improved = True
            rounds = 0
            while improved and rounds < REFINE_ROUNDS:
                improved = False
                rounds += 1
                for axis in basis:
                    for sign in (1.0, -1.0):
                        q = best_q + sign * step * epsilon * axis
                        if np.linalg.norm(q - point) > epsilon:
                            continue
                        val = objective(q)
                        if val > best_val:
                            best_q, best_val = q, val
                            improved = True
    delta = max(best_val, 0.0)
    delta = min(delta, epsilon - float(np.linalg.norm(best_q - point)))
    return best_q, max(delta, 0.0)


# ---------------------------------------------------------------------------
# the dimension induction
# ---------------------------------------------------------------------------

def join_margins(point, stars, star_folis, folis) -> list:
    """Semitransversality margin of every join of ``point`` with a face of a
    star simplex, as ``(u, si, idx, m)``.

    ``u`` indexes ``folis``, ``si`` the star simplex, ``idx`` the face's rows
    in it; only joins of dimension <= n-k of foliation ``u`` are listed.  A
    base face that is not transverse scores zero.  Faces shared by several
    star simplices are evaluated once per foliation.
    """
    cache: dict[tuple[int, bytes], float] = {}
    out = []
    for u, v in enumerate(folis):
        cap = v.ambient_dim - v.rank
        for si, (s, us) in enumerate(zip(stars, star_folis)):
            if u not in us:
                continue
            for d in range(1, min(cap, s.shape[0]) + 1):
                for idx in combinations(range(s.shape[0]), d):
                    face = s[list(idx)]
                    key = (u, face.tobytes())
                    if key not in cache:
                        try:
                            cache[key] = float(semitrans_margin(point, face, v))
                        except PreconditionViolated:
                            cache[key] = 0.0
                    out.append((u, si, idx, cache[key]))
    return out


def perturb_vertex(req: PerturbationRequest) -> PerturbationResult:
    """Perturb one point so all joins with the star become semitransverse.

    Runs the staged induction over join dimensions d = 1, 2, ...: stage d
    clears the projected affine spans of all (d-1)-dimensional faces of the
    star simplices, searching inside the clearance ball left by stage d-1.
    The per-dimension margins are therefore non-increasing and the final
    point carries a certificate listing the realized margin of every join.
    """
    point = req.point
    folis: list[Plane] = list(req.foliations)
    stars = req.star_simplices
    star_folis = req.star_foliations
    if star_folis is None:
        star_folis = [tuple(range(len(folis)))] * len(stars)
    if len(star_folis) != len(stars):
        raise PreconditionViolated("star_foliations must parallel star_simplices")

    for u, v in enumerate(folis):
        for s, us in zip(stars, star_folis):
            if u in us and not simplex_transverse(s, v):
                raise StarNotTransverse(
                    f"a star simplex of dim {s.shape[0] - 1} is not transverse "
                    f"to foliation {u}"
                )
        if req.constraint_flat is not None and req.constraint_flat.direction is not None:
            if not is_transverse_planes(req.constraint_flat.direction, v):
                raise PreconditionViolated(
                    f"constraint flat is not transverse to foliation {u}"
                )

    h_dim = (req.constraint_flat.dim if req.constraint_flat is not None
             else point.shape[0])
    d_max = 0
    for v in folis:
        d_max = max(d_max, v.ambient_dim - v.rank)
    d_max = min(d_max, h_dim)

    current = point
    delta = req.epsilon
    per_dim: dict[int, float] = {}
    for d in range(1, d_max + 1):
        flats = []
        quotients = []
        seen = set()
        for u, v in enumerate(folis):
            if d > v.ambient_dim - v.rank:
                continue
            for s, us in zip(stars, star_folis):
                if u not in us:
                    continue
                for idx in combinations(range(s.shape[0]), d):
                    face = s[list(idx)]
                    rounded = np.round(face, 12)
                    ordered = rounded[np.lexsort(rounded.T[::-1])]
                    key = (u, ordered.tobytes())
                    if key in seen:
                        continue
                    seen.add(key)
                    flats.append(affine_span(face))
                    quotients.append(v)
        if not flats:
            per_dim[d] = delta
            continue
        current, delta = avoid_flats(
            current, delta, flats, quotients,
            constraint_flat=req.constraint_flat,
            seed=req.seed * 1000003 + d,
            samples=req.samples,
        )
        per_dim[d] = delta

    moved = float(np.linalg.norm(current - point))
    delta = min(delta, req.epsilon - moved)
    delta = max(delta, 0.0)

    return PerturbationResult(
        point=current,
        achieved_delta=float(delta),
        moved=moved,
        per_dimension_margins=per_dim,
        certificate=join_margins(current, stars, star_folis, folis),
    )
