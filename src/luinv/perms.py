"""Symmetric-group machinery for invariant labels.

Conventions, fixed once for the whole package:

- A permutation of {1..m} is stored as its image list: ``images[l-1] = sigma(l)``
  (1-based values).
- Composition is right-to-left: ``compose(a, b)(l) = a(b(l))``.
- Cycle names for m = 3 follow ``s = (123)`` meaning 1->2, 2->3, 3->1, i.e.
  images ``[2,3,1]``, and ``t = (12)(3)`` = ``[2,1,3]``.  Products are read in
  composition order, so ``ts = compose(t, s) = [1,3,2]`` (the swap fixing 1)
  and ``ts2 = compose(t, s2) = [3,2,1]`` (the swap fixing 2).

Two equivalences on r-tuples of permutations are used throughout:

- simultaneous conjugation (``sigma_j -> b sigma_j b^-1`` for one b), whose
  classes label mixed-state invariants; canonical representatives are the
  lexicographic minimum of the concatenated image lists over the orbit;
- the two-sided relabeling ``sigma_j -> a sigma_j b^-1`` (same a, b for all j),
  whose classes label pure-state invariants.  A two-sided class splits into
  finitely many conjugation classes; ``sim_decompose`` computes the split.

One private kernel, ``_relabelings``, maps the flat key of a tuple
(``PermTuple.key()``) to the keys of its m! conjugates, or of its m! left
translates, using conjugator tables built once per grade.  Canonicalization
(``canonical_form`` and the ``OrbitLabel`` check), ``orbit``,
``enumerate_orbits``, the ``sim_decompose`` split and
``graphs.canonical_graph`` all run on it.  ``orbit_partition`` is the one
orbit routine on points, shared by ``is_transitive`` and
``graphs.connected_components``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator, Union

from .errors import ResourceLimitError

#: Upper bound on the grade for brute-force orbit routines.
MAX_GRADE = 8

#: Cost cap (conjugation-tuple operations) for brute-force enumerations.
_ENUM_OP_LIMIT = 100_000_000


@dataclass(frozen=True, order=True)
class Perm:
    """A permutation of {1..m} as a tuple of 1-based images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, l: int) -> int:
        return self.images[l - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.m
        for l, img in enumerate(self.images, start=1):
            inv[img - 1] = l
        return Perm(tuple(inv))

    def is_identity(self) -> bool:
        return all(img == l for l, img in enumerate(self.images, start=1))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(l for l, img in enumerate(self.images, start=1) if img == l)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest element, ordered by it."""
        seen = [False] * self.m
        out = []
        for start in range(1, self.m + 1):
            if seen[start - 1]:
                continue
            cyc = []
            l = start
            while not seen[l - 1]:
                seen[l - 1] = True
                cyc.append(l)
                l = self(l)
            out.append(tuple(cyc))
        return out

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def __repr__(self):
        return f"Perm({list(self.images)})"


def identity(m: int) -> Perm:
    return Perm(tuple(range(1, m + 1)))


def compose(a: Perm, b: Perm) -> Perm:
    """Composition a∘b, applying b first: (a∘b)(l) = a(b(l))."""
    if a.m != b.m:
        raise ValueError(f"grade mismatch: {a.m} != {b.m}")
    return Perm(tuple(a(b(l)) for l in range(1, b.m + 1)))


def conjugate(beta: Perm, g: Perm) -> Perm:
    """Conjugation beta * g * beta^-1."""
    if beta.m != g.m:
        raise ValueError(f"grade mismatch: {beta.m} != {g.m}")
    return compose(compose(beta, g), beta.inverse())


@lru_cache(maxsize=None)
def _conjugators(m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every b in S_m, in lexicographic image order, as the pair (value map,
    index order): ``vmap[l] = b(l)`` for 1-based l (``vmap[0]`` is unused) and
    ``order[i] = b^-1(i+1) - 1``, the 0-based position a relabeled image list
    reads its (i+1)-th entry from."""
    if m > MAX_GRADE:
        raise ResourceLimitError(
            f"grade {m} exceeds MAX_GRADE={MAX_GRADE}: too large for brute-force canonicalization"
        )
    out = []
    for b in itertools.permutations(range(m)):
        order = [0] * m
        for i, x in enumerate(b):
            order[x] = i
        out.append(((0,) + tuple(x + 1 for x in b), tuple(order)))
    return tuple(out)


@lru_cache(maxsize=None)
def symmetric_group(m: int) -> tuple[Perm, ...]:
    """All m! permutations of {1..m}, in lexicographic image order."""
    return tuple(Perm(vmap[1:]) for vmap, _ in _conjugators(m))


# Named elements for small grades.  The m=3 names follow the conventions in
# the module docstring; parsing/printing below round-trips through them.
_S3_NAMED = {
    "e": (1, 2, 3),
    "s": (2, 3, 1),
    "s2": (3, 1, 2),
    "t": (2, 1, 3),
    "ts": (1, 3, 2),
    "ts2": (3, 2, 1),
}
_NAME_BY_IMAGES = {
    (1,): "e",
    (1, 2): "e",
    (2, 1): "t",
    **{img: name for name, img in _S3_NAMED.items()},
}


def perm_name(p: Perm) -> str:
    """Short name for m <= 3 elements; image-list form "[2,1,3]" otherwise."""
    name = _NAME_BY_IMAGES.get(p.images)
    if name is not None:
        return name
    return "[" + ",".join(str(i) for i in p.images) + "]"


def perm_from_name(text: str, m: int) -> Perm:
    """Inverse of perm_name.  Accepts named and image-list forms for any m."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated image list: {text!r}")
        images = tuple(int(x) for x in text[1:-1].split(","))
        if len(images) != m:
            raise ValueError(f"image list {text!r} has length {len(images)}, expected {m}")
        return Perm(images)
    for name, images in _S3_NAMED.items():
        if text == name:
            if m == 3:
                return Perm(images)
            if m == 2 and name in ("e", "t"):
                return Perm(images[:2])
            if m == 1 and name == "e":
                return Perm((1,))
            raise ValueError(f"name {text!r} is not defined for grade {m}")
    raise ValueError(f"unknown permutation name {text!r}")


@dataclass(frozen=True, order=True)
class PermTuple:
    """An r-tuple of permutations of common grade m (r = 0 is allowed, so the
    grade is carried explicitly)."""

    m: int
    perms: tuple[Perm, ...]

    def __post_init__(self):
        for p in self.perms:
            if p.m != self.m:
                raise ValueError(f"grade mismatch inside tuple: {p.m} != {self.m}")

    @property
    def r(self) -> int:
        return len(self.perms)

    def key(self) -> tuple[int, ...]:
        """Concatenated image lists; the lexicographic comparison key."""
        return tuple(i for p in self.perms for i in p.images)

    def conjugated(self, beta: Perm) -> "PermTuple":
        return PermTuple(self.m, tuple(conjugate(beta, p) for p in self.perms))

    def embed(self) -> "PermTuple":
        """Append the identity in the last slot (pure label -> mixed label)."""
        return PermTuple(self.m, self.perms + (identity(self.m),))

    def __repr__(self):
        return f"PermTuple(m={self.m}, [{format_label(self)}])"


def perm_tuple(m: int, *named: str) -> PermTuple:
    """Convenience constructor from names, e.g. perm_tuple(3, "t", "ts")."""
    return PermTuple(m, tuple(perm_from_name(n, m) for n in named))


def format_label(t: PermTuple) -> str:
    """Comma-separated entries; named form for m <= 3, image lists otherwise."""
    return ",".join(perm_name(p) for p in t.perms)


def parse_label(text: str, m: int) -> PermTuple:
    """Parse the format_label form.  Commas inside [..] do not split entries.
    An empty string is the r = 0 label."""
    text = text.strip()
    if not text:
        return PermTuple(m, ())
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return PermTuple(m, tuple(perm_from_name(p, m) for p in parts))


def _relabelings(
    key: tuple[int, ...], m: int, r: int, translate: bool = False
) -> list[tuple[int, ...]]:
    """The permutation kernel: flat keys (see PermTuple.key) of relabelings
    of one r-tuple over S_m, one per b in S_m in symmetric_group order.

    By default these are the conjugates b·sigma_j·b^-1; with translate, the
    left translates b·sigma_j.  Every two-sided relabeling a·sigma_j·b^-1
    equals b·((b^-1 a)·sigma_j)·b^-1, a conjugate of a left translate.  This
    is the only loop over the conjugators of S_m, and it holds the MAX_GRADE
    guard through _conjugators."""
    slices = [key[i * m:(i + 1) * m] for i in range(r)]
    if translate:
        return [tuple([vmap[x] for s in slices for x in s]) for vmap, _ in _conjugators(m)]
    return [
        tuple([vmap[s[i]] for s in slices for i in order]) for vmap, order in _conjugators(m)
    ]


def _from_key(key: tuple[int, ...], m: int, r: int) -> PermTuple:
    return PermTuple(m, tuple(Perm(key[i * m:(i + 1) * m]) for i in range(r)))


@dataclass(frozen=True, order=True)
class OrbitLabel:
    """Canonical representative of a simultaneous-conjugation class; the
    public identity of one invariant polynomial.  rep is always in canonical
    (lexicographically minimal) form."""

    rep: PermTuple

    def __post_init__(self):
        key = self.rep.key()
        if key != min(_relabelings(key, self.m, self.r)):
            raise ValueError(f"representative {self.rep} is not canonical")

    @classmethod
    def _trusted(cls, key: tuple[int, ...], m: int, r: int) -> "OrbitLabel":
        """The label of a flat key the kernel has just made canonical (the
        minimum of its relabelings): skips the canonicity check."""
        label = object.__new__(cls)
        object.__setattr__(label, "rep", _from_key(key, m, r))
        return label

    @property
    def m(self) -> int:
        return self.rep.m

    @property
    def r(self) -> int:
        return self.rep.r

    def __repr__(self):
        return f"OrbitLabel(m={self.m}, [{format_label(self.rep)}])"


Label = Union[PermTuple, OrbitLabel]


def as_tuple(label: Label) -> PermTuple:
    return label.rep if isinstance(label, OrbitLabel) else label


def canonical_form(sigma: PermTuple) -> OrbitLabel:
    """Canonical label of sigma's simultaneous-conjugation class.

    Deterministic and idempotent: the lexicographic minimum of the
    concatenated image lists over all conjugates.  Brute force over the m!
    conjugators of the kernel, guarded by MAX_GRADE.
    """
    m, r = sigma.m, sigma.r
    return OrbitLabel._trusted(min(_relabelings(sigma.key(), m, r)), m, r)


def orbit(sigma: PermTuple) -> set[PermTuple]:
    """The full simultaneous-conjugation orbit of sigma."""
    m, r = sigma.m, sigma.r
    return {_from_key(key, m, r) for key in set(_relabelings(sigma.key(), m, r))}


def _check_enum_cost(m: int, r: int):
    cost = factorial(m) ** max(r, 1) * max(r, 1) * m
    if cost > _ENUM_OP_LIMIT:
        raise ResourceLimitError(
            f"orbit enumeration for m={m}, r={r} needs ~{cost:.2e} operations"
        )


def enumerate_orbits(m: int, r: int) -> list[OrbitLabel]:
    """All distinct conjugation-orbit labels of r-tuples over S_m, sorted
    lexicographically by concatenated image lists."""
    _check_enum_cost(m, r)
    images = [p.images for p in symmetric_group(m)]
    seen: set[tuple[int, ...]] = set()
    canon: list[tuple[int, ...]] = []
    for combo in itertools.product(images, repeat=r):
        key = tuple(itertools.chain.from_iterable(combo))
        if key in seen:
            continue
        orb = _relabelings(key, m, r)
        seen.update(orb)
        canon.append(min(orb))
    canon.sort()
    return [OrbitLabel._trusted(key, m, r) for key in canon]


def s3_orbit_representatives(r: int) -> list[PermTuple]:
    """Exactly one representative per conjugation orbit of S_3^r, built by
    pattern rather than by brute force.

    For each assignment of the conjugacy classes [e], [s], [t] to the r
    positions: positions marked [e] get e; the first [s]-position gets s and
    later ones s or s2 freely; the first [t]-position gets t, and later
    [t]-positions get t or ts until the first ts has occurred, then t, ts or
    ts2 freely -- unless an [s]-position exists, in which case later
    [t]-positions range over t, ts, ts2 freely.

    The output is pattern-based, not lexicographically canonical; as a set of
    orbits it equals enumerate_orbits(3, r) (apply canonical_form to compare).
    """
    if r < 1:
        raise ValueError("arity must be >= 1")
    e, s, s2, t, ts, ts2 = (perm_from_name(n, 3) for n in ("e", "s", "s2", "t", "ts", "ts2"))
    out: list[PermTuple] = []
    for classes in itertools.product("est", repeat=r):
        s_positions = [i for i, c in enumerate(classes) if c == "s"]
        t_positions = [i for i, c in enumerate(classes) if c == "t"]

        s_choices: list[tuple[Perm, ...]] = [()]
        if s_positions:
            tails = itertools.product((s, s2), repeat=len(s_positions) - 1)
            s_choices = [(s,) + tail for tail in tails]

        t_choices: list[tuple[Perm, ...]] = [()]
        if t_positions:
            if s_positions:
                tails = itertools.product((t, ts, ts2), repeat=len(t_positions) - 1)
                t_choices = [(t,) + tail for tail in tails]
            else:
                t_choices = [(t,) + tail for tail in _t_only_tails(len(t_positions) - 1, t, ts, ts2)]

        for s_fill in s_choices:
            for t_fill in t_choices:
                entries = []
                si = iter(s_fill)
                ti = iter(t_fill)
                for c in classes:
                    if c == "e":
                        entries.append(e)
                    elif c == "s":
                        entries.append(next(si))
                    else:
                        entries.append(next(ti))
                out.append(PermTuple(3, tuple(entries)))
    return out


def _t_only_tails(n: int, t: Perm, ts: Perm, ts2: Perm) -> Iterator[tuple[Perm, ...]]:
    """Tails after the leading t when no [s]-position exists: t or ts until
    the first ts, then t, ts or ts2 freely."""
    if n == 0:
        yield ()
        return
    for first_ts in range(n + 1):  # position of the first ts; n means "never"
        if first_ts == n:
            yield (t,) * n
            continue
        head = (t,) * first_ts + (ts,)
        for tail in itertools.product((t, ts, ts2), repeat=n - first_ts - 1):
            yield head + tail


def orbit_partition(sigma: PermTuple) -> list[tuple[int, ...]]:
    """Orbits on {1..m} of the group generated by the entries, each sorted
    and listed by its smallest point."""
    out: list[tuple[int, ...]] = []
    for start in range(1, sigma.m + 1):
        if any(start in block for block in out):
            continue
        block, frontier = {start}, {start}
        while frontier:
            frontier = {p(l) for l in frontier for p in sigma.perms} - block
            block |= frontier
        out.append(tuple(sorted(block)))
    return out


def is_transitive(sigma: PermTuple) -> bool:
    """Whether the subgroup generated by the entries has a single orbit on
    {1..m}.  Marks membership in the algebraically independent generating set
    (for m = 1 this is trivially true: the lone grade-1 label is the norm)."""
    return len(orbit_partition(sigma)) == 1


def generator_labels(m: int, r: int) -> list[OrbitLabel]:
    """The transitive subset of enumerate_orbits(m, r)."""
    return [lab for lab in enumerate_orbits(m, r) if is_transitive(lab.rep)]


@dataclass(frozen=True)
class SimClass:
    """One two-sided relabeling class, split into its conjugation classes.

    anchor is the member whose representatives carry the identity in the last
    slot (the class of the embedded pure label); members lists all classes,
    anchor included, sorted.
    """

    anchor: OrbitLabel
    members: tuple[OrbitLabel, ...]

    def __post_init__(self):
        if self.anchor not in self.members:
            raise ValueError("anchor must be one of the members")


def sim_decompose(sigma: PermTuple) -> SimClass:
    """Decompose the two-sided class of the embedded tuple (sigma, e) into
    conjugation classes.

    sigma is a pure label with r = k-1 entries; the returned labels live in
    S_m^k.  Every member a·sigma_j·b^-1 of the double coset is conjugate to
    the left translate (b^-1 a)·sigma_j, so the classes are the canonical
    forms of the m! left translates.
    """
    m = sigma.m
    embedded = sigma.embed()
    k = embedded.r
    # m! translates, each canonicalized over m! conjugators of k entries of m
    cost = factorial(m) ** 2 * k * m
    if cost > _ENUM_OP_LIMIT:
        raise ResourceLimitError(
            f"double-coset split for m={m}, r={sigma.r} needs ~{cost:.2e} operations"
        )
    classes = {
        min(_relabelings(key, m, k)) for key in _relabelings(embedded.key(), m, k, translate=True)
    }
    anchor = canonical_form(embedded)
    members = tuple(OrbitLabel._trusted(key, m, k) for key in sorted(classes))
    return SimClass(anchor=anchor, members=members)
