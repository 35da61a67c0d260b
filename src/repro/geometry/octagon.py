"""Octilinear convex regions ("octagons") in rotated space.

The full merging-region family of Cong et al.'s BST-DME consists of convex
polygons whose boundary slopes are {0, inf, +1, -1}.  In the rotated
coordinates used by this package, such a region is exactly the solution
set of eight bounds:

    ulo <= u <= uhi,   vlo <= v <= vhi,
    plo <= u + v <= phi,   mlo <= u - v <= mhi.

This family is closed under intersection (component-wise) and under
Minkowski inflation by the L-inf ball (u/v bounds grow by r, p/m bounds by
2r).  Canonicalisation tightens the eight bounds to their achievable
values, after which:

* the projections onto u and v are exactly [ulo, uhi] and [vlo, vhi];
* the L-inf distance between two octagons is
  max(gap_u, gap_v, gap_p / 2, gap_m / 2) over canonical bounds —
  the diagonal terms matter (unlike for rectangles), e.g. the distance
  from a point to the segment u + v = c is realised diagonally;
* distance-to-point uses the same formula with degenerate bounds.

The family is *not* closed under the shortest-path-region (SPR)
construction between two octagons (the sum of two octagonal gauge
functions has gradients outside the four orientations), which is why the
production DME keeps rectangles; octagons are provided as validated
infrastructure and for the region-growth ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point

_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Octagon:
    """Canonical octilinear convex region in rotated coordinates."""

    ulo: float
    uhi: float
    vlo: float
    vhi: float
    plo: float  # bounds on u + v
    phi: float
    mlo: float  # bounds on u - v
    mhi: float

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_point(p: Point) -> "Octagon":
        return Octagon(p.x, p.x, p.y, p.y,
                       p.x + p.y, p.x + p.y, p.x - p.y, p.x - p.y)

    @staticmethod
    def from_bounds(
        ulo: float, uhi: float, vlo: float, vhi: float,
        plo: float | None = None, phi: float | None = None,
        mlo: float | None = None, mhi: float | None = None,
    ) -> "Octagon | None":
        """Canonical octagon from (possibly loose) bounds; None if empty."""
        oct_ = Octagon(
            ulo, uhi, vlo, vhi,
            plo if plo is not None else ulo + vlo,
            phi if phi is not None else uhi + vhi,
            mlo if mlo is not None else ulo - vhi,
            mhi if mhi is not None else uhi - vlo,
        )
        return oct_.canonical()

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def canonical(self) -> "Octagon | None":
        """Tighten all eight bounds; None when the region is empty.

        The constraint graph over two variables closes after a bounded
        number of alternations between box and diagonal tightenings.
        """
        ulo, uhi = self.ulo, self.uhi
        vlo, vhi = self.vlo, self.vhi
        plo, phi = self.plo, self.phi
        mlo, mhi = self.mlo, self.mhi
        for _ in range(6):
            n_uhi = min(uhi, phi - vlo, mhi + vhi, (phi + mhi) / 2.0)
            n_ulo = max(ulo, plo - vhi, mlo + vlo, (plo + mlo) / 2.0)
            n_vhi = min(vhi, phi - ulo, uhi - mlo, (phi - mlo) / 2.0)
            n_vlo = max(vlo, plo - uhi, ulo - mhi, (plo - mhi) / 2.0)
            n_phi = min(phi, n_uhi + n_vhi, mhi + 2 * n_vhi,
                        2 * n_uhi - mlo)
            n_plo = max(plo, n_ulo + n_vlo, mlo + 2 * n_vlo,
                        2 * n_ulo - mhi)
            n_mhi = min(mhi, n_uhi - n_vlo, n_phi - 2 * n_vlo,
                        2 * n_uhi - n_plo)
            n_mlo = max(mlo, n_ulo - n_vhi, n_plo - 2 * n_vhi,
                        2 * n_ulo - n_phi)
            if (n_ulo, n_uhi, n_vlo, n_vhi, n_plo, n_phi, n_mlo, n_mhi) == (
                ulo, uhi, vlo, vhi, plo, phi, mlo, mhi
            ):
                break
            ulo, uhi, vlo, vhi = n_ulo, n_uhi, n_vlo, n_vhi
            plo, phi, mlo, mhi = n_plo, n_phi, n_mlo, n_mhi
        if (ulo > uhi + _TOL or vlo > vhi + _TOL
                or plo > phi + _TOL or mlo > mhi + _TOL):
            return None
        # snap float-noise inversions (within _TOL) to consistent midpoints
        if ulo > uhi:
            ulo = uhi = (ulo + uhi) / 2.0
        if vlo > vhi:
            vlo = vhi = (vlo + vhi) / 2.0
        if plo > phi:
            plo = phi = (plo + phi) / 2.0
        if mlo > mhi:
            mlo = mhi = (mlo + mhi) / 2.0
        return Octagon(ulo, uhi, vlo, vhi, plo, phi, mlo, mhi)

    # ------------------------------------------------------------------
    # Predicates and measures
    # ------------------------------------------------------------------
    def contains(self, p: Point, tol: float = _TOL) -> bool:
        return (
            self.ulo - tol <= p.x <= self.uhi + tol
            and self.vlo - tol <= p.y <= self.vhi + tol
            and self.plo - tol <= p.x + p.y <= self.phi + tol
            and self.mlo - tol <= p.x - p.y <= self.mhi + tol
        )

    @property
    def center(self) -> Point:
        """A point inside the octagon (box centre clamped into the
        diagonal bands)."""
        u = (self.ulo + self.uhi) / 2.0
        v_low = max(self.vlo, self.plo - u, u - self.mhi)
        v_high = min(self.vhi, self.phi - u, u - self.mlo)
        return Point(u, (v_low + v_high) / 2.0)

    def is_point(self, tol: float = _TOL) -> bool:
        return (self.uhi - self.ulo <= tol and self.vhi - self.vlo <= tol)

    # ------------------------------------------------------------------
    # Metric operations (L-inf in rotated space)
    # ------------------------------------------------------------------
    def inflate(self, r: float) -> "Octagon":
        if r < 0:
            raise ValueError(f"cannot inflate by negative radius {r}")
        result = Octagon(
            self.ulo - r, self.uhi + r,
            self.vlo - r, self.vhi + r,
            self.plo - 2 * r, self.phi + 2 * r,
            self.mlo - 2 * r, self.mhi + 2 * r,
        ).canonical()
        assert result is not None
        return result

    def intersect(self, other: "Octagon") -> "Octagon | None":
        return Octagon(
            max(self.ulo, other.ulo), min(self.uhi, other.uhi),
            max(self.vlo, other.vlo), min(self.vhi, other.vhi),
            max(self.plo, other.plo), min(self.phi, other.phi),
            max(self.mlo, other.mlo), min(self.mhi, other.mhi),
        ).canonical()

    def distance(self, other: "Octagon") -> float:
        gap_u = max(self.ulo - other.uhi, other.ulo - self.uhi, 0.0)
        gap_v = max(self.vlo - other.vhi, other.vlo - self.vhi, 0.0)
        gap_p = max(self.plo - other.phi, other.plo - self.phi, 0.0)
        gap_m = max(self.mlo - other.mhi, other.mlo - self.mhi, 0.0)
        return max(gap_u, gap_v, gap_p / 2.0, gap_m / 2.0)

    def distance_to_point(self, p: Point) -> float:
        return self.distance(Octagon.from_point(p))

    def nearest_point(self, p: Point) -> Point:
        """A point of the octagon at minimal L-inf distance from ``p``."""
        d = self.distance_to_point(p)
        if d <= _TOL:
            return self._clamp_inside(p)
        ball = Octagon.from_point(p).inflate(d + _TOL)
        touched = self.intersect(ball)
        assert touched is not None, "ball of radius=dist must touch"
        return touched.center

    def _clamp_inside(self, p: Point) -> Point:
        u = min(max(p.x, self.ulo), self.uhi)
        v_low = max(self.vlo, self.plo - u, u - self.mhi)
        v_high = min(self.vhi, self.phi - u, u - self.mlo)
        return Point(u, min(max(p.y, v_low), v_high))

    # ------------------------------------------------------------------
    def vertices(self) -> list[Point]:
        """Corner points (up to 8), counter-clockwise, duplicates dropped."""
        candidates = []
        # walk the boundary: for each u-extreme and each diagonal cut,
        # intersect adjacent constraint lines
        lines = [
            ("u", self.ulo), ("p", self.plo), ("v", self.vlo),
            ("m", self.mhi), ("u", self.uhi), ("p", self.phi),
            ("v", self.vhi), ("m", self.mlo),
        ]
        n = len(lines)
        for i in range(n):
            a_kind, a_val = lines[i]
            b_kind, b_val = lines[(i + 1) % n]
            pt = _line_intersection(a_kind, a_val, b_kind, b_val)
            if pt is not None and self.contains(pt, tol=1e-6):
                candidates.append(pt)
        unique: list[Point] = []
        for pt in candidates:
            if not any(pt.is_close(q, tol=1e-9) for q in unique):
                unique.append(pt)
        return unique


def _line_intersection(
    a_kind: str, a_val: float, b_kind: str, b_val: float
) -> Point | None:
    """Intersection of two constraint lines u=c, v=c, u+v=c or u-v=c."""
    if a_kind == b_kind:
        return None
    coords = {a_kind: a_val, b_kind: b_val}
    if "u" in coords and "v" in coords:
        return Point(coords["u"], coords["v"])
    if "u" in coords and "p" in coords:
        return Point(coords["u"], coords["p"] - coords["u"])
    if "u" in coords and "m" in coords:
        return Point(coords["u"], coords["u"] - coords["m"])
    if "v" in coords and "p" in coords:
        return Point(coords["p"] - coords["v"], coords["v"])
    if "v" in coords and "m" in coords:
        return Point(coords["m"] + coords["v"], coords["v"])
    if "p" in coords and "m" in coords:
        return Point((coords["p"] + coords["m"]) / 2.0,
                     (coords["p"] - coords["m"]) / 2.0)
    return None
