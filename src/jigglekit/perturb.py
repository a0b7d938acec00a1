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

import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateSimplex,
    InfeasibleDimensions,
    PreconditionViolated,
    StarNotTransverse,
)
from .grassmann import (
    AffineFlat,
    Plane,
    _flat_distances,
    _project_flat,
    affine_span,
    is_transverse_planes,
    project_along,
)
from .transversality import _transverse_stack, semitrans_margin, simplex_transverse

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
        _check_search(self.point, self.epsilon, self.samples)
        if self.epsilon == 0:
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

def _search_basis(ambient: int, constraint: AffineFlat | None) -> np.ndarray:
    if constraint is None:
        return np.eye(ambient)
    if constraint.direction is None:
        return np.zeros((0, ambient))
    return constraint.direction.basis


def _check_search(point: np.ndarray, epsilon, samples) -> None:
    """Reject a point or budget that is not finite, a negative budget and a
    sample count that is not a nonnegative integer."""
    if not np.isfinite(point).all():
        raise PreconditionViolated(f"point must be finite, got {point}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise PreconditionViolated(
            f"budget must be finite and nonnegative, got {epsilon!r}")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) \
            or samples < 0:
        raise PreconditionViolated(
            f"samples must be a nonnegative integer, got {samples!r}")


def avoid_flats(p, epsilon: float, flats, quotients=None,
                constraint_flat: AffineFlat | None = None,
                seed: int = 0, samples: int = 64):
    """Move p within an epsilon-ball to clear a list of affine flats.

    ``flats[i]`` is avoided inside the quotient by ``quotients[i]`` (a Plane,
    or None for the ambient space).  The returned pair ``(p', delta)``
    satisfies the nested-ball contract: |p'-p| + delta <= epsilon, and the
    open ball of radius delta around each projection of p' misses its flat.
    delta is the best clearance the seeded search found, not a supremum.

    The search scores ``samples`` seeded points of the ball and keeps the
    first strictly better one, then refines along the search axes with
    shrinking steps, accepting the first improving move of each sweep.
    Candidates are scored in stacks, each with the bits of a point-by-point
    evaluation, so the result is that of the sequential search.
    """
    point = np.asarray(p, dtype=float)
    _check_search(point, epsilon, samples)
    flats = list(flats)
    if quotients is None:
        quotients = [None] * len(flats)
    if len(quotients) != len(flats):
        raise PreconditionViolated("flats and quotients must pair up")

    basis = _search_basis(point.shape[0], constraint_flat)
    ndof = basis.shape[0]
    # projected flats stacked by quotient and dimension, so that a stack of
    # candidates is projected and measured once per group
    search_dims: dict[Plane | None, int] = {}
    tasks: dict[tuple, list[AffineFlat]] = {}
    for flat, quot in zip(flats, quotients):
        proj_flat = _project_flat(quot, flat)
        if quot not in search_dims:
            proj_basis = basis if quot is None else project_along(quot, basis)
            s = np.linalg.svd(proj_basis, compute_uv=False)
            search_dims[quot] = int(np.sum(s > 1e-9 * max(s[0], 1.0))) if s.size else 0
        if proj_flat.dim >= search_dims[quot]:
            raise InfeasibleDimensions(
                f"flat of dimension {proj_flat.dim} fills the "
                f"{search_dims[quot]}-dimensional projected search domain"
            )
        tasks.setdefault((quot, proj_flat.dim), []).append(proj_flat)
    groups = [(None if quot is None else quot.complement(),
               np.stack([f.base for f in group]),
               np.stack([f.direction.basis for f in group]) if dim else None)
              for (quot, dim), group in tasks.items()]

    def objective(qs: np.ndarray):
        """|q - p| and min(epsilon - |q - p|, clearance of q) per row of qs."""
        rel = qs - point
        dist = np.sqrt(np.vecdot(rel, rel))
        val = epsilon - dist
        for comp, bases, dirs in groups:
            proj = qs if comp is None else (qs[:, None, :] @ comp.T)[:, 0, :]
            val = np.minimum(val, _flat_distances(proj, bases, dirs).min(axis=1))
        return dist, val

    best_q = point
    best_val = float(objective(point[None])[1][0])
    if tasks:
        if samples:
            rng = np.random.default_rng([seed, 2026])
            dirs = rng.normal(size=(samples, ndof))
            norms = np.linalg.norm(dirs, axis=1)
            norms[norms == 0] = 1.0
            radii = epsilon * rng.uniform(0.0, 1.0, size=samples) \
                ** (1.0 / max(ndof, 1))
            offsets = (dirs / norms[:, None]) * radii[:, None]
            qs = point + (offsets[:, None, :] @ basis)[:, 0, :]
            vals = objective(qs)[1]
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_q, best_val = qs[i], float(vals[i])
        # the moves of one sweep in order: +axis, -axis for each search axis
        axes = np.repeat(basis, 2, axis=0)
        signs = np.tile([1.0, -1.0], ndof)
        for step in REFINE_STEPS:
            moves = (signs * step * epsilon)[:, None] * axes
            for _ in range(REFINE_ROUNDS):
                improved = False
                start = 0
                while start < len(moves):
                    # every move starts at the latest best point, so after
                    # an accepted move only the later ones are scored again
                    qs = best_q + moves[start:]
                    dist, vals = objective(qs)
                    better = np.flatnonzero(~(dist > epsilon) & (vals > best_val))
                    if not better.size:
                        break
                    i = better[0]
                    best_q, best_val = qs[i], float(vals[i])
                    improved = True
                    start += i + 1
                if not improved:
                    break
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


def _check_star(stars: list, v: Plane, u: int) -> None:
    """Raise for the first star simplex that fails ``simplex_transverse``
    against foliation ``u``: :class:`StarNotTransverse`, or the
    :class:`DegenerateSimplex` that the test raises.  Simplices of dimension
    1 to n-k are tested as one stack per size."""
    free = v.ambient_dim - v.rank
    verdicts = {}
    for size in {len(s) for s in stars if 2 <= len(s) <= free + 1}:
        idx = [i for i, s in enumerate(stars) if len(s) == size]
        transverse, degenerate = _transverse_stack(
            np.stack([stars[i] for i in idx]), v)
        verdicts.update(zip(idx, zip(transverse, degenerate)))
    for i, s in enumerate(stars):
        if i in verdicts:
            ok, flat = verdicts[i]
            if flat:
                raise DegenerateSimplex("simplex directions are dependent")
        else:
            ok = simplex_transverse(s, v)
        if not ok:
            raise StarNotTransverse(
                f"a star simplex of dim {s.shape[0] - 1} is not transverse "
                f"to foliation {u}"
            )


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
        _check_star([s for s, us in zip(stars, star_folis) if u in us], v, u)
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
