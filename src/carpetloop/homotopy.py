"""Explicit null-homotopies over cancellation diagrams.

The disk is modeled by an inscribed rational polygon: every parameter of
interest (crossing endpoints, loop vertices, quarter points) becomes a
circle vertex via the rational quarter-arc map, diagram pairs become
pairs of chords, and the chords cut the polygon into convex 2-cells.
Each pair's band is the piece between its two chords.  The cut keeps
every cell counterclockwise, and a band lies to the left of its chords
and of its letters' arcs, so a cell lies in a band exactly when one of
its edges runs forwards along one of them; no geometry is needed.
Each cell is triangulated from its centroid and filled affinely into a
target region of the space.  The fan apex maps to the centroid of the
cell's values, or, when the target is a non-convex plus of grid squares,
to the home square's center, about which the plus is star-shaped.  Every
face is therefore affine, and containment and the convergence gap are
decided exactly.

Outside the polygon, points collapse radially onto its boundary, and
points exactly on the unit circle evaluate through the inverse circle
map, so the boundary condition holds exactly at every parameter.

Floats only filter: padded float boxes, paired by a sweep in x, and
float orientation signs with a certified margin rule out candidates that
provably miss, and every candidate they keep is decided exactly.  The
convergence gap decides its crossings, locations and values in integers
over homogeneous coordinates; its witness is the least corner in (x, y)
order that reaches the maximum.  Containment finds candidate squares by
integer floor division, first for a face's whole fan, then per triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .errors import AssignmentFailure, IncompatibleHomotopies, MalformedDiagram
from .grid import Corridor, DefiningSequence, PolyLoop, Point, _pow3, _segment_cells
from .traces import CancellationDiagram, diagram_valid
from .words import CyclicWord, encode_word, _mod1

QUARTERS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


# ---------------------------------------------------------------------------
# Rational circle


def circle_point(t: Fraction) -> Point:
    """Monotone rational parameterization of the unit circle, t in [0,1).

    With 4t = q + u, u = p/b, the point ((b^2-p^2), 2pb) / (b^2+p^2)
    turned q quarters."""
    q, p = divmod(4 * t.numerator, t.denominator)
    b = t.denominator
    den = b * b + p * p
    x, y = b * b - p * p, 2 * p * b
    for _ in range(q % 4):
        x, y = -y, x
    return Fraction(x, den), Fraction(y, den)


def circle_param(p: Point) -> Fraction:
    """Inverse of circle_point on exactly-on-circle rational points."""
    x, y = p
    if x * x + y * y != 1:
        raise ValueError(f"{p} is not on the unit circle")
    q = 0
    while not (x > 0 and y >= 0):
        x, y = y, -x
        q += 1
        if q > 3:
            raise AssertionError("rotation failed to normalize quadrant")
    u = y / (1 + x)
    return (q + u) / 4


# ---------------------------------------------------------------------------
# Small exact-geometry helpers


# The triple of integers (X, Y, W), W != 0, is the point (X/W, Y/W); its
# canonical triple (W > 0, gcd 1) is the point's exact identity.
Homogeneous = tuple[int, int, int]


def _homogeneous(p: Point) -> Homogeneous:
    """The canonical triple of a rational point: W is the lcm of its denominators."""
    x, y = p
    w = lcm(x.denominator, y.denominator)
    return x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w


def _lowest(x: int, y: int, w: int) -> Homogeneous:
    """The canonical triple of the point (x/w, y/w)."""
    g = gcd(x, y, w)
    if w < 0:
        g = -g
    return x // g, y // g, w // g


def _point(p: Homogeneous) -> Point:
    return Fraction(p[0], p[2]), Fraction(p[1], p[2])


def _det(o: Homogeneous, a: Homogeneous, b: Homogeneous) -> int:
    """Determinant of three homogeneous points: (a - o) x (b - o) times Wo Wa Wb."""
    xo, yo, wo = o
    xa, ya, wa = a
    xb, yb, wb = b
    return xo * (ya * wb - yb * wa) - yo * (xa * wb - xb * wa) + wo * (xa * yb - xb * ya)


def _between(p: Homogeneous, q: Homogeneous, n: int, d: int) -> Homogeneous:
    """p + (n/d)(q - p), not reduced."""
    k, l = (d - n) * q[2], n * p[2]
    return k * p[0] + l * q[0], k * p[1] + l * q[1], d * p[2] * q[2]


def _centroid(points: Sequence[Point]) -> Point:
    """The mean point, its coordinates summed over one common denominator."""
    d = lcm(*(c.denominator for p in points for c in p))
    x, y = (sum(c.numerator * (d // c.denominator) for c in cs) for cs in zip(*points))
    return Fraction(x, d * len(points)), Fraction(y, d * len(points))


def _lerp(p: Point, q: Point, t: Fraction) -> Point:
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _segments_cross(
    a: Point, b: Point, c: Point, d: Point
) -> Optional[tuple[Fraction, Fraction]]:
    """Parameters (s, t) of a proper crossing a+s(b-a) = c+t(d-c), else None.

    A crossing is proper when each segment has its two ends strictly on
    opposite sides of the other's line, so 0 < s, t < 1.  Any contact at
    an endpoint (a shared endpoint, an endpoint on the other segment) and
    any collinear contact returns None.
    """
    a, b, c, d = map(_homogeneous, (a, b, c, d))
    d1, d2, d3, d4 = _det(a, b, c), _det(a, b, d), _det(c, d, a), _det(c, d, b)
    if d1 * d2 < 0 and d3 * d4 < 0:
        s, t = d3 * b[2], d1 * d[2]
        return Fraction(s, s - d4 * a[2]), Fraction(t, t - d2 * c[2])
    return None


# Float filters.  Domain points lie in the closed unit disk, so every
# coordinate has |x| <= 1 and its float is within 2^-53 of it.  The float
# value of (ax-ox)(by-oy) - (ay-oy)(bx-ox) is then within 6e-15 of the
# exact one: each difference of size <= 2 is off by at most 4.5e-16 (two
# conversions and a rounding), each product by at most 2.3e-15, and the
# last subtraction adds a rounding of at most 9e-16.  Beyond the margin
# the float sign is the exact sign; nearer zero the filter abstains.
# Boxes are padded far past conversion error, so they never miss.
_ORIENT_MARGIN = 1e-12
_BOX_PAD = 1e-9


def _float_orient(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> int:
    """Sign of (a - o) x (b - o) when floats certify it, else 0."""
    d = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    if d > _ORIENT_MARGIN:
        return 1
    if d < -_ORIENT_MARGIN:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Cellulation


@dataclass(frozen=True)
class Node:
    point: Point
    param: Optional[Fraction]  # set for circle vertices only


@dataclass(frozen=True)
class BandChord:
    band: int
    a: int  # node index
    b: int


@dataclass(frozen=True)
class Band:
    index: int
    pair: tuple[int, int]
    corridor: Corridor


@dataclass(frozen=True)
class Face:
    nodes: tuple[int, ...]
    bands: tuple[int, ...]


@dataclass(frozen=True)
class Cellulation:
    params: tuple[Fraction, ...]
    nodes: tuple[Node, ...]
    faces: tuple[Face, ...]
    bands: tuple[Band, ...]
    chords: tuple[BandChord, ...]
    crossings: tuple[tuple[int, int, int], ...]  # (node, chord idx, chord idx)


def build_cellulation(
    word: CyclicWord,
    diagram: CancellationDiagram,
    params: Optional[Iterable[Fraction]] = None,
) -> Cellulation:
    """Cut the inscribed polygon along the diagram's chords.

    Chords of one pair connect the end of each letter to the start of
    the other.  Crossing chords must belong to commuting corridors; the
    crossing points become interior nodes and every face is convex.

    Every region is cut counterclockwise, and a band lies to the left of
    its two chords, taken from a letter's end to its partner's start,
    and of its two letters' arcs, taken from start to end.  So a face
    is inside a band exactly when one of its directed edges lies along
    one of those four paths.  A chord skipped as identical to the cut
    adds no edges: it belongs to an H and a V band, so nothing crosses
    it, and the face on its band side holds the arc edge just before its
    start node, which the letter ending there covers.
    """
    if not diagram_valid(word.trace, diagram):
        raise MalformedDiagram("diagram is not valid for the word")
    marks = set(QUARTERS)
    for l in word.letters:
        marks.add(l.interval.start)
        marks.add(_mod1(l.interval.end))
    if params is not None:
        marks.update(_mod1(t) for t in params)
    ps = tuple(sorted(marks))
    nodes: list[Node] = [Node(circle_point(t), t) for t in ps]
    index_of = {t: j for j, t in enumerate(ps)}

    # The bands to the left of each directed edge: arc edges here, chord
    # runs at each cut.
    m = len(ps)
    inside: dict[tuple[int, int], list[int]] = {}
    bands: list[Band] = []
    chords: list[BandChord] = []
    for bi, (p, q) in enumerate(diagram.sorted_pairs):
        lp, lq = word.letters[p], word.letters[q]
        bands.append(Band(bi, (p, q), lp.corridor))
        c0 = BandChord(bi, index_of[_mod1(lp.interval.end)], index_of[lq.interval.start])
        c1 = BandChord(bi, index_of[_mod1(lq.interval.end)], index_of[lp.interval.start])
        chords += (c0, c1)
        for j, end in ((c1.b, c0.a), (c0.b, c1.a)):  # the arcs of lp and lq
            while j != end:
                inside.setdefault((j, (j + 1) % m), []).append(bi)
                j = (j + 1) % m

    crossings: list[tuple[int, int, int]] = []
    faces: list[tuple[int, ...]] = []

    # Working chords: (a, b, band, chord_serial); serial preserved through cuts.
    work = [(c.a, c.b, c.band, k) for k, c in enumerate(chords)]

    # Regions still to cut, each with the chords that lie in it; the
    # first region popped is the one a recursive cut would visit next,
    # so faces and crossing nodes come in depth-first order.
    stack = [(list(range(m)), work)]
    while stack:
        region, todo = stack.pop()
        if not todo:
            if len(region) >= 3:
                faces.append(tuple(region))
            continue
        cut = todo[0]
        rest = todo[1:]
        ca, cb = cut[0], cut[1]
        ia, ib = region.index(ca), region.index(cb)
        if ia > ib:
            ia, ib = ib, ia
            ca, cb = cb, ca
        chain_a = region[ia : ib + 1]
        chain_b = region[ib:] + region[: ia + 1]
        interior_a = set(chain_a[1:-1])
        interior_b = set(chain_b[1:-1])
        pa, pb = nodes[ca].point, nodes[cb].point
        on_cut: list[tuple[Fraction, int]] = []
        todo_a: list = []
        todo_b: list = []
        for d in rest:
            du, dv = d[0], d[1]
            if {du, dv} == {ca, cb}:
                continue  # geometrically identical; the cut already separates
            su = "A" if du in interior_a else ("B" if du in interior_b else "E")
            sv = "A" if dv in interior_a else ("B" if dv in interior_b else "E")
            if su == "E" and sv == "E":
                raise AssertionError("distinct chord shares both cut endpoints")
            side = su if su != "E" else sv
            if "E" in (su, sv) or su == sv:
                (todo_a if side == "A" else todo_b).append(d)
                continue
            st = _segments_cross(pa, pb, nodes[du].point, nodes[dv].point)
            if st is None:
                raise AssertionError("straddling chord fails to cross the cut")
            if not word.trace.commute(bands[cut[2]].corridor.id, bands[d[2]].corridor.id):
                raise MalformedDiagram(
                    "chords of non-commuting corridors cross; the diagram "
                    "cannot come from a valid cancellation"
                )
            nodes.append(Node(_lerp(pa, pb, st[0]), None))
            xi = len(nodes) - 1
            crossings.append((xi, cut[3], d[3]))
            on_cut.append((st[0], xi))
            part_u = (du, xi, d[2], d[3])
            part_v = (xi, dv, d[2], d[3])
            (todo_a if su == "A" else todo_b).append(part_u)
            (todo_a if sv == "A" else todo_b).append(part_v)
        on_cut.sort()
        xs = [xi for _, xi in on_cut]
        run = [cut[0], *(xs if ca == cut[0] else xs[::-1]), cut[1]]
        for edge in zip(run, run[1:]):
            inside.setdefault(edge, []).append(cut[2])
        stack.append((chain_b + xs, todo_b))
        stack.append((chain_a + xs[::-1], todo_a))

    final_faces = []
    for fnodes in faces:
        edges = zip(fnodes[-1:] + fnodes[:-1], fnodes)
        mem = sorted({b for edge in edges for b in inside.get(edge, ())})
        if len(mem) > 2:
            raise AssertionError(f"face inside {len(mem)} bands")
        if len(mem) == 2:
            o1 = bands[mem[0]].corridor.orientation
            o2 = bands[mem[1]].corridor.orientation
            if o1 == o2:
                raise AssertionError("face inside two same-orientation bands")
        final_faces.append(Face(fnodes, tuple(mem)))

    return Cellulation(
        params=ps,
        nodes=tuple(nodes),
        faces=tuple(final_faces),
        bands=tuple(bands),
        chords=tuple(chords),
        crossings=tuple(crossings),
    )


# ---------------------------------------------------------------------------
# Target regions


Rect = tuple[Fraction, Fraction, Fraction, Fraction]  # x0, x1, y0, y1


@dataclass(frozen=True)
class Target:
    kind: str  # "junction" | "corridor" | "rect" | "plus"
    rect: Optional[Rect] = None
    cells: tuple[tuple[int, int], ...] = ()
    center: Optional[Point] = None


def _in_rect(p: Point, r: Rect) -> bool:
    return r[0] <= p[0] <= r[1] and r[2] <= p[1] <= r[3]


def _free_target(
    seq: DefiningSequence,
    i: int,
    values: Sequence[Point],
    edges: Sequence[tuple[Point, Point]],
) -> Target:
    """Assign a hole-free region to a face outside every band.

    First choice: the grid-snapped bounding box of the values, when all
    of its cells are kept.  Fallback: a plus-shaped union of kept cells
    around a kept even-even home cell that holds every edge between the
    values; it is star-shaped about the home center.
    """
    n = _pow3(i)
    xs = [v[0] for v in values]
    ys = [v[1] for v in values]
    a0 = max(0, min(v.numerator * n // v.denominator for v in xs))
    b0 = max(0, min(v.numerator * n // v.denominator for v in ys))
    a1 = min(n, max(-((-v.numerator * n) // v.denominator) for v in xs))
    b1 = min(n, max(-((-v.numerator * n) // v.denominator) for v in ys))
    a1, b1 = max(a1, a0 + 1), max(b1, b0 + 1)
    if all(
        seq.cell_in_space(a, b, i)
        for a in range(a0, a1)
        for b in range(b0, b1)
    ):
        return Target(
            "rect", rect=(Fraction(a0, n), Fraction(a1, n), Fraction(b0, n), Fraction(b1, n))
        )

    homes: list[tuple[int, int]] = []
    for v in values:
        fa = v[0].numerator * n // v[0].denominator
        fb = v[1].numerator * n // v[1].denominator
        for a in {fa, fa - 1} if v[0] * n == fa else {fa}:
            for b in {fb, fb - 1} if v[1] * n == fb else {fb}:
                if (
                    0 <= a < n
                    and 0 <= b < n
                    and a % 2 == 0
                    and b % 2 == 0
                    and seq.cell_in_space(a, b, i)
                    and (a, b) not in homes
                ):
                    homes.append((a, b))
    homes.sort()
    for home in homes:
        ha, hb = home
        kept = lambda a, b: 0 <= a < n and 0 <= b < n and seq.cell_in_space(a, b, i)
        region = {home}
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if kept(ha + da, hb + db):
                region.add((ha + da, hb + db))
        for da in (-1, 1):
            for db in (-1, 1):
                if (
                    kept(ha + da, hb + db)
                    and (ha + da, hb) in region
                    and (ha, hb + db) in region
                ):
                    region.add((ha + da, hb + db))
        if all(cell in region for p, q in edges for cell in _segment_cells(p, q, n)):
            center = (Fraction(2 * ha + 1, 2 * n), Fraction(2 * hb + 1, 2 * n))
            return Target("plus", cells=tuple(sorted(region)), center=center)
    raise AssignmentFailure(
        f"no hole-free region found for a free face at level {i}"
    )


# ---------------------------------------------------------------------------
# The homotopy object


@dataclass(frozen=True)
class FaceFill:
    face: int
    target: Target
    # triangles: ((domain triple), (value triple)) with a shared apex
    triangles: tuple[tuple[tuple[Point, Point, Point], tuple[Point, Point, Point]], ...]


@dataclass(frozen=True)
class LevelHomotopy:
    loop: PolyLoop
    seq: DefiningSequence
    level: int
    word: CyclicWord
    diagram: CancellationDiagram
    cellulation: Cellulation
    fills: tuple[FaceFill, ...]

    @property
    def target_kinds(self) -> tuple[str, ...]:
        return tuple(f.target.kind for f in self.fills)

    @cached_property
    def _triangles(self) -> list:
        """The map's non-degenerate triangles in fill order, as canonical
        homogeneous (domain, values) triples.  A fan's triangles share
        their apex and edge point objects, so each object converts once."""
        objs = {id(p): p for f in self.fills for tri in f.triangles for ps in tri for p in ps}
        canon = {k: _homogeneous(p) for k, p in objs.items()}
        out = []
        for fill in self.fills:
            for (a, b, c), (u, v, w) in fill.triangles:
                dom = canon[id(a)], canon[id(b)], canon[id(c)]
                if _det(*dom):
                    out.append((dom, (canon[id(u)], canon[id(v)], canon[id(w)])))
        return out


def _chord_constants(
    cell: Cellulation, alpha: dict[int, Point]
) -> dict[int, tuple[str, Fraction]]:
    consts: dict[int, tuple[str, Fraction]] = {}
    for k, ch in enumerate(cell.chords):
        orient = cell.bands[ch.band].corridor.orientation
        va, vb = alpha[ch.a], alpha[ch.b]
        axis = 1 if orient == "H" else 0
        if va[axis] != vb[axis]:
            raise AssertionError(
                "paired crossings do not share a boundary line; the diagram "
                "pairs letters with mismatched signs"
            )
        consts[k] = (orient, va[axis])
    return consts


def build_homotopy(
    loop: PolyLoop,
    seq: DefiningSequence,
    i: int,
    diagram: CancellationDiagram,
    *,
    word: Optional[CyclicWord] = None,
    extra_params: Iterable[Fraction] = (),
) -> LevelHomotopy:
    """Fill the disk over a cancellation diagram for the level-i word.

    Faces inside two bands map into the junction cell of the two
    corridors, faces inside one band into that corridor's rectangle,
    and free faces into a snapped bounding box or a plus of kept cells.
    Each face is a fan of triangles from its centroid; the apex maps to
    the centroid of the face's values, or to a plus's center, about
    which the plus is star-shaped, so every cone over the face's
    boundary values stays in the target and every face is affine.
    Raises AssignmentFailure when no admissible region exists.
    """
    seq.check_level(i)
    if word is None:
        word = encode_word(loop, seq, i)
    if word.level != i:
        raise ValueError(f"word level {word.level} differs from target level {i}")
    params = [loop.vertex_param(j) for j in range(len(loop))]
    params.extend(extra_params)
    cell = build_cellulation(word, diagram, params=params)

    alpha = {
        j: loop.point_at(n.param)
        for j, n in enumerate(cell.nodes)
        if n.param is not None
    }
    consts = _chord_constants(cell, alpha)
    values: list[Optional[Point]] = [alpha.get(j) for j in range(len(cell.nodes))]
    for node_idx, k1, k2 in cell.crossings:
        (o1, c1), (o2, c2) = consts[k1], consts[k2]
        if o1 == o2:
            raise AssertionError("same-orientation chords crossed")
        x = c1 if o1 == "V" else c2
        y = c1 if o1 == "H" else c2
        values[node_idx] = (x, y)
    if any(v is None for v in values):
        raise AssertionError("node without a value")

    n3 = _pow3(i)
    fills: list[FaceFill] = []
    for fi, face in enumerate(cell.faces):
        pts = [cell.nodes[j].point for j in face.nodes]
        vals = [values[j] for j in face.nodes]
        edges = list(zip(vals, vals[1:] + vals[:1]))
        if len(face.bands) == 2:
            ba, bb = (cell.bands[b].corridor for b in face.bands)
            h = ba if ba.orientation == "H" else bb
            v = ba if ba.orientation == "V" else bb
            rect = (v.transverse[0], v.transverse[1], h.transverse[0], h.transverse[1])
            target = Target("junction", rect=rect)
        elif len(face.bands) == 1:
            target = Target("corridor", rect=cell.bands[face.bands[0]].corridor.rect)
        else:
            target = _free_target(seq, i, vals, edges)
        if target.rect is not None and not all(_in_rect(v, target.rect) for v in vals):
            raise AssignmentFailure(
                f"face {fi} carries values outside its {target.kind} rectangle"
            )
        cen_d = _centroid(pts)
        cen_v = target.center if target.kind == "plus" else _centroid(vals)
        tris = tuple(
            ((cen_d, pts[k], pts[(k + 1) % len(pts)]), (cen_v, vals[k], vals[(k + 1) % len(vals)]))
            for k in range(len(pts))
        )
        fills.append(FaceFill(fi, target, tris))

    return LevelHomotopy(
        loop=loop,
        seq=seq,
        level=i,
        word=word,
        diagram=diagram,
        cellulation=cell,
        fills=tuple(fills),
    )


# ---------------------------------------------------------------------------
# Evaluation


def _minkowski(h: LevelHomotopy, z: Point) -> Fraction:
    """Gauge of z for the inscribed polygon: <=1 inside, >1 outside."""
    if z[0] == 0 and z[1] == 0:
        return Fraction(0)
    ring = [h.cellulation.nodes[j].point for j in range(len(h.cellulation.params))]
    m = len(ring)
    for j in range(m):
        a, b = ring[j], ring[(j + 1) % m]
        s1 = a[0] * z[1] - a[1] * z[0]
        s2 = z[0] * b[1] - z[1] * b[0]
        if s1 >= 0 and s2 >= 0:
            nx, ny = a[1] - b[1], b[0] - a[0]
            k = nx * a[0] + ny * a[1]
            return (nx * z[0] + ny * z[1]) / k
    raise AssertionError("no polygon sector contains the direction of z")


def _eval_in_polygon(h: LevelHomotopy, p: Homogeneous) -> Homogeneous:
    """The map's value at p, from the first triangle in fill order that holds it;
    the determinants locating p are its barycentric weights, times W factors."""
    for (a, b, c), (va, vb, vc) in h._triangles:
        s0, s1, s2 = _det(b, c, p), _det(c, a, p), _det(a, b, p)
        if (s0 >= 0 and s1 >= 0 and s2 >= 0) or (s0 <= 0 and s1 <= 0 and s2 <= 0):
            ka, kb = s0 * a[2] * vb[2] * vc[2], s1 * b[2] * va[2] * vc[2]
            kc = s2 * c[2] * va[2] * vb[2]
            return (
                ka * va[0] + kb * vb[0] + kc * vc[0],
                ka * va[1] + kb * vb[1] + kc * vc[1],
                (s0 * a[2] + s1 * b[2] + s2 * c[2]) * va[2] * vb[2] * vc[2],
            )
    raise AssertionError(f"point {_point(p)} not covered by any face")


def evaluate(h: LevelHomotopy, z: tuple) -> Point:
    """Value of the filled disk map at z in the closed unit disk.

    Points exactly on the unit circle evaluate through the inverse
    circle parameterization; points outside the inscribed polygon first
    collapse radially onto its boundary.
    """
    x, y = Fraction(z[0]), Fraction(z[1])
    if x * x + y * y > 1:
        raise ValueError("point outside the closed unit disk")
    if x * x + y * y == 1:
        return h.loop.point_at(circle_param((x, y)))
    mu = _minkowski(h, (x, y))
    p = (x, y) if mu <= 1 else (x / mu, y / mu)
    return _point(_eval_in_polygon(h, _homogeneous(p)))


# ---------------------------------------------------------------------------
# Containment


@dataclass(frozen=True)
class ContainmentReport:
    ok: bool
    level: int
    exact_faces: int
    violations: tuple[tuple[int, Point], ...]  # (face, offending value point)


def _clip_rect(tri: Sequence[Point], rect: Rect) -> list[Point]:
    """Sutherland-Hodgman clip of a polygon against a closed rectangle."""
    poly = list(tri)
    specs = (
        (0, rect[0], True),
        (0, rect[1], False),
        (1, rect[2], True),
        (1, rect[3], False),
    )
    for axis, c, keep_ge in specs:
        if not poly:
            return []
        out: list[Point] = []
        for a, b in zip(poly, poly[1:] + poly[:1]):
            ia = a[axis] >= c if keep_ge else a[axis] <= c
            ib = b[axis] >= c if keep_ge else b[axis] <= c
            if ia:
                out.append(a)
            if ia != ib:
                out.append(_lerp(a, b, (c - a[axis]) / (b[axis] - a[axis])))
        poly = out
    return poly


def _strictly_inside(p: Point, rect: Rect) -> bool:
    return rect[0] < p[0] < rect[1] and rect[2] < p[1] < rect[3]


def _triangle_meets_open_rect(tri: Sequence[Point], rect: Rect) -> Optional[Point]:
    """A point of the closed triangle strictly inside the open rect, or None."""
    clipped = _clip_rect(tri, rect)
    if not clipped:
        return None
    for p in clipped:
        if _strictly_inside(p, rect):
            return p
    cen = _centroid(clipped)
    if _strictly_inside(cen, rect):
        return cen
    return None


def _hole_squares(points: Collection[Point], seq: DefiningSequence, i: int) -> Iterator[Rect]:
    """The removed squares of levels s <= i whose interiors meet the points' box.

    The level-s squares ((2k-1)/3^s, 2k/3^s) x ((2m-1)/3^s, 2m/3^s) come
    by scale, then k, then m, from floor divisions of the box's bounds."""
    x0n, x0d = min(p[0] for p in points).as_integer_ratio()
    x1n, x1d = max(p[0] for p in points).as_integer_ratio()
    y0n, y0d = min(p[1] for p in points).as_integer_ratio()
    y1n, y1d = max(p[1] for p in points).as_integer_ratio()
    for s in range(1, i + 1):
        n = _pow3(s)
        k_lo = max(1, x0n * n // (2 * x0d) + 1)
        k_hi = min((n - 1) // 2, (x1n * n + x1d - 1) // (2 * x1d))
        m_lo = max(1, y0n * n // (2 * y0d) + 1)
        m_hi = min((n - 1) // 2, (y1n * n + y1d - 1) // (2 * y1d))
        for k in range(k_lo, k_hi + 1):
            for m in range(m_lo, m_hi + 1):
                if seq.has_hole(s, k, m):
                    yield tuple(Fraction(c, n) for c in (2 * k - 1, 2 * k, 2 * m - 1, 2 * m))


def _triangle_hole_hit(
    tri: Sequence[Point], seq: DefiningSequence, i: int
) -> Optional[Point]:
    """A point of the triangle strictly inside a removed square, or None."""
    for rect in _hole_squares(tri, seq, i):
        hit = _triangle_meets_open_rect(tri, rect)
        if hit is not None:
            return hit
    return None


def verify_containment(h: LevelHomotopy) -> ContainmentReport:
    """Check the filled disk's image avoids every removed square.

    Every face is affine, so the image of each of its triangles is a
    triangle, tested exactly against each candidate open square.  A face
    whose values' box meets no removed square's interior is skipped
    whole: its triangles lie in that box.  The space and level are the
    filling's own.
    """
    violations: list[tuple[int, Point]] = []
    for fill in h.fills:
        # A fan's triangles share their point objects; compare each once.
        values = {id(p): p for _, val in fill.triangles for p in val}.values()
        if next(_hole_squares(values, h.seq, h.level), None) is None:
            continue
        for _, val in fill.triangles:
            hit = _triangle_hole_hit(val, h.seq, h.level)
            if hit is not None:
                violations.append((fill.face, hit))
                break
    return ContainmentReport(
        ok=not violations,
        level=h.level,
        exact_faces=len(h.fills),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Convergence gap between consecutive levels


@dataclass(frozen=True)
class GapReport:
    level_pair: tuple[int, int]
    max_sq: Fraction
    bound: Fraction
    holds: bool
    # The least corner in (x, y) order where max_sq is reached; None when it is 0.
    witness: Optional[Point]
    pairs_checked: int  # edge pairs that reached the exact crossing test


def _edge_pairs(edges1: Iterable, edges2: Iterable, points: list) -> Iterator[tuple]:
    """The pairs of edges, one from each mesh, whose padded float boxes meet
    and whose four ends are distinct: edges with a common end cannot cross.

    Sweep and prune: boxes enter in order of low x, and each meets those
    of the other mesh that the sweep has not passed and whose y-intervals
    meet its own.  An edge comes as its ends and their floats, (a, b, ax, ay, bx, by)."""
    boxes = []
    for side, edges in enumerate((edges1, edges2)):
        for a, b in edges:
            _, ax, ay = points[a]
            _, bx, by = points[b]
            boxes.append((min(ax, bx) - _BOX_PAD, max(ax, bx) + _BOX_PAD, min(ay, by) - _BOX_PAD,
                          max(ay, by) + _BOX_PAD, side, a, b, (a, b, ax, ay, bx, by)))
    boxes.sort(key=itemgetter(0))
    live: list[list] = [[], []]
    for box in boxes:
        x0, _, y0, y1, side, a, b, edge = box
        ends = a, b
        others = live[1 - side] = [e for e in live[1 - side] if e[1] >= x0]
        for e in others:
            if e[2] <= y1 and y0 <= e[3] and e[5] not in ends and e[6] not in ends:
                yield (edge, e[7]) if side == 0 else (e[7], edge)
        live[side].append(box)


def _overlay_index(
    h: LevelHomotopy, ids: dict[Homogeneous, int], points: list
) -> tuple[dict[int, Homogeneous], dict[tuple[int, int], None]]:
    """Distinct vertices with their values, and unique edges, of the mesh.

    Vertex ids are shared through `ids`, keyed by canonical triple, by
    the two meshes of a gap; `points` holds each id's triple and its
    floats.  Edges are id pairs, kept in fill order.
    """
    values: dict[int, Homogeneous] = {}
    edges: dict[tuple[int, int], None] = {}
    for dom, val in h._triangles:
        js = []
        for p, v in zip(dom, val):
            j = ids.get(p)
            if j is None:
                j = ids[p] = len(points)
                points.append((p, p[0] / p[2], p[1] / p[2]))
            if values.setdefault(j, v) != v:
                raise AssertionError(f"map takes two values at mesh vertex {_point(p)}")
            js.append(j)
        for a, b in ((js[0], js[1]), (js[1], js[2]), (js[2], js[0])):
            edges[(a, b) if a < b else (b, a)] = None
    return values, edges


def convergence_gap(h1: LevelHomotopy, h2: LevelHomotopy) -> GapReport:
    """Sup-distance between consecutive-level fillings of one loop.

    Requires both homotopies to share the loop, the space, and the full
    parameter set (build them with each other's marks as extra_params).
    On the common polygon the difference of two affine triangles is
    affine, so |difference|^2 is convex on each cell of the overlay of
    the two meshes and is maximized at a corner.  Corners are the
    vertices of either mesh, located in the other, and the proper
    crossings of one mesh's edges with the other's; touching and
    collinear contacts are mesh vertices already.  Edge pairs meet by a
    sweep over padded float boxes sorted by low x, and certified float
    orientations reject more; every inclusion, crossing and value is an
    integer determinant or ratio over homogeneous coordinates, each
    distinct corner is evaluated once, and the maximum is exact, as is
    its witness, the least such corner in (x, y) order.  Outside the
    polygon both maps collapse radially to identical boundary values, so
    the annulus contributes nothing.
    """
    if h1.loop != h2.loop or h1.seq != h2.seq:
        raise IncompatibleHomotopies("homotopies describe different problems")
    if h2.level != h1.level + 1:
        raise IncompatibleHomotopies(
            f"levels {h1.level},{h2.level} are not consecutive"
        )
    if h1.cellulation.params != h2.cellulation.params:
        raise IncompatibleHomotopies(
            "different disk polygons; rebuild with shared extra_params"
        )

    ids: dict[Homogeneous, int] = {}
    points: list[tuple[Homogeneous, float, float]] = []
    values1, edges1 = _overlay_index(h1, ids, points)
    values2, edges2 = _overlay_index(h2, ids, points)

    # The running maximum of |v1 - v2|^2 as the integer ratio num/den.
    num, den = 0, 1
    witness: Optional[Homogeneous] = None

    def consider(p: Homogeneous, v1: Homogeneous, v2: Homogeneous) -> None:
        nonlocal num, den, witness
        dx = v1[0] * v2[2] - v2[0] * v1[2]
        dy = v1[1] * v2[2] - v2[1] * v1[2]
        n, d = dx * dx + dy * dy, (v1[2] * v2[2]) ** 2
        c = n * den - num * d
        if c > 0 or c == 0 and witness is not None and (
            (p[0] * witness[2], p[1] * witness[2]) < (witness[0] * p[2], witness[1] * p[2])
        ):
            num, den, witness = n, d, p

    # Vertex corners.  The maps are continuous, so any triangle holding a
    # point gives its value; a vertex of both meshes needs no search.
    for j, v1 in values1.items():
        p = points[j][0]
        v2 = values2.get(j)
        consider(p, v1, v2 if v2 is not None else _eval_in_polygon(h2, p))
    for j, v2 in values2.items():
        if j not in values1:
            p = points[j][0]
            consider(p, _eval_in_polygon(h1, p), v2)

    # Crossing corners: edge pairs with distinct ends whose padded float boxes meet.
    pairs_checked = 0
    crossings: set[Homogeneous] = set()
    pairs = _edge_pairs(edges1, edges2, points)
    for (a, b, ax, ay, bx, by), (c, d, cx, cy, dx, dy) in pairs:
        s = _float_orient(ax, ay, bx, by, cx, cy)
        if s and s == _float_orient(ax, ay, bx, by, dx, dy):
            continue
        s = _float_orient(cx, cy, dx, dy, ax, ay)
        if s and s == _float_orient(cx, cy, dx, dy, bx, by):
            continue
        pairs_checked += 1
        pa, pb, pc, pd = points[a][0], points[b][0], points[c][0], points[d][0]
        d1, d2 = _det(pa, pb, pc), _det(pa, pb, pd)
        if d1 * d2 >= 0:
            continue
        d3, d4 = _det(pc, pd, pa), _det(pc, pd, pb)
        if d3 * d4 >= 0:
            continue
        # A proper crossing, at s along the first edge and t along the
        # second; each map is affine along its edge.
        sn, sd = d3 * pb[2], d3 * pb[2] - d4 * pa[2]
        tn, td = d1 * pd[2], d1 * pd[2] - d2 * pc[2]
        x = _lowest(*_between(pa, pb, sn, sd))
        if x in ids or x in crossings:
            continue
        crossings.add(x)
        consider(
            x,
            _between(values1[a], values1[b], sn, sd),
            _between(values2[c], values2[d], tn, td),
        )

    max_sq = Fraction(num, den)
    bound = Fraction(6, _pow3(h1.level))
    return GapReport(
        level_pair=(h1.level, h2.level),
        max_sq=max_sq,
        bound=bound,
        holds=max_sq <= bound * bound,
        witness=None if witness is None else _point(witness),
        pairs_checked=pairs_checked,
    )
