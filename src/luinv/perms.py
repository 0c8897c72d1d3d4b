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

Canonical forms (``canonical_form``, the ``OrbitLabel`` check and so
``graphs.canonical_graph``) scan no S_m.
``_classes`` holds, once per grade, each cycle type's class
representative (its class minimum) and the centralizer of that
representative, of order z_lambda.  A tuple's first non-identity entry goes
to its representative; the conjugators that do so are one coset of the
centralizer, and each later entry keeps only the part of that coset that
gives it its least image.
``orbit_partition`` is the one orbit routine on points, shared by
``is_transitive`` and ``graphs.connected_components``.
``_cycles`` is the one cycle walk and ``_conjugator`` the one builder of a
conjugator, the (value map, index order) pair that conjugates an image list
in one comprehension; the hot loops that apply conjugators inline it.
``_check_grade`` is the one MAX_GRADE bound, for ``graphs`` and the CLI too.

``enumerate_orbits`` is an orderly generation (canonical augmentation,
McKay, J. Algorithms 26 (1998)): a tuple is canonical exactly when each
entry is the lexicographically first of its orbit under the common
centralizer of the entries before it.  So a depth-first walk that keeps, at
each depth, the first candidate of every orbit of the current stabilizer,
and recurses with that candidate's stabilizer, meets every label once, in
sorted order; once the stabilizer is trivial the remaining entries are free.
Where the stabilizer is all of S_m (the root, or after identity entries) the
children are the class representatives, each with its centralizer.
``_orbit_heads`` expands one node; ``sim_decompose`` splits a two-sided
class along the children of its pure label's node.
Its output, which ``orbit_count`` gives in advance by Burnside's lemma, is
checked before any work; ``generator_count`` counts the transitive labels.
Every label the package builds shares the interned ``Perm`` objects of
``symmetric_group(m)``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Any, Iterator, Sequence, Union

from ._record import Ordered, Value, as_int, set_hash
from .errors import ResourceLimitError

#: Upper bound on the grade: the routines that list S_m (symmetric_group,
#: sim_decompose, the enumeration walk), the class table and
#: graphs.expressible_ordering, each checked by _check_grade.
MAX_GRADE = 8

#: Most label entries (labels times max(r, 1)) enumerate_orbits returns, and
#: most translate entries (m! times k) a sim_decompose split may canonicalize.
#: A label of interned perms takes about 0.15 KB plus 8 bytes per entry, under
#: 0.33 KB at every admitted r >= 1 with m >= 2, so this bounds an enumeration
#: at about 0.32 GB; the largest admitted, (6,3) and (4,5), hold 93 MB and
#: 65 MB by tracemalloc.
ENUM_ENTRY_LIMIT = 2_000_000


class Perm(Ordered):
    """A permutation of {1..m} as a tuple of 1-based images."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        checked = tuple([as_int(i) for i in images])
        if None in checked or sorted(checked) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        set_hash(self, None)
        object.__setattr__(self, "images", checked)

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
        return _cycles(self.images)

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
    vmap, order = _conjugator(tuple(enumerate(beta.images, 1)))
    return _trusted_perm(tuple([vmap[g.images[i]] for i in order]))


def _cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The disjoint cycles of an image list, each starting at its smallest
    element, ordered by it: the one cycle walk of the package."""
    seen = [False] * (len(images) + 1)
    out = []
    for start in range(1, len(images) + 1):
        if not seen[start]:
            cycle = []
            l = start
            while not seen[l]:
                seen[l] = True
                cycle.append(l)
                l = images[l - 1]
            out.append(tuple(cycle))
    return out


#: A permutation b as the pair (value map, index order) that conjugates an
#: image list x to b·x·b^-1 as ``tuple(vmap[x[i]] for i in order)``:
#: ``vmap[l] = b(l)`` for 1-based l (``vmap[0]`` is unused) and
#: ``order[i] = b^-1(i+1) - 1``.
_Conjugator = tuple[tuple[int, ...], tuple[int, ...]]


def _conjugator(pairs: Sequence[tuple[int, int]]) -> _Conjugator:
    """The conjugator pair of the permutation b given by its point pairs
    (l, b(l)), one for each l in 1..m in any order."""
    vmap = [0] * (len(pairs) + 1)
    order = [0] * len(pairs)
    for a, b in pairs:
        vmap[a] = b
        order[b - 1] = a - 1
    return tuple(vmap), tuple(order)


def _check_grade(m: int):
    """The one bound on the grade: ResourceLimitError above MAX_GRADE."""
    if m > MAX_GRADE:
        raise ResourceLimitError(
            f"grade {m} exceeds MAX_GRADE: too large, grades run 1..{MAX_GRADE}"
        )


@lru_cache(maxsize=None)
def symmetric_group(m: int) -> tuple[Perm, ...]:
    """All m! permutations of {1..m}, in lexicographic image order."""
    _check_grade(m)
    return tuple(map(_trusted_perm, itertools.permutations(range(1, m + 1))))


@lru_cache(maxsize=None)
def _interned(m: int) -> dict[tuple[int, ...], Perm]:
    """symmetric_group(m) by image list: the one Perm object per element
    that every label built by this module shares."""
    return {p.images: p for p in symmetric_group(m)}


def _cycle_types(n: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts >= smallest, each as ascending cycle
    lengths."""
    if n == 0:
        yield ()
    for part in range(smallest, n + 1):
        for rest in _cycle_types(n - part, part):
            yield (part,) + rest


def _centralizer_order(lengths: tuple[int, ...]) -> int:
    """z_lambda = prod_i i^(a_i) a_i!, the order of the centralizer of a
    permutation with these ascending cycle lengths (a_i cycles of length i)."""
    order = 1
    for n, group in itertools.groupby(lengths):
        a = len(list(group))
        order *= n ** a * factorial(a)
    return order


def _centralizer(lengths: tuple[int, ...]) -> tuple[_Conjugator, ...]:
    """The centralizer of the class representative of these cycle lengths,
    as sorted conjugator pairs: each element sends equal-length cycles onto
    each other (a_i! ways) and rotates each (i ways), z_lambda in all."""
    cycles, start = [], 1
    for n in lengths:
        cycles.append(range(start, start + n))
        start += n
    factors = []  # per length: the point pairs (l, b(l)) of each choice
    for n, group in itertools.groupby(cycles, key=len):
        group = list(group)
        factors.append([
            [(a, target[(t + shift) % n])
             for cycle, target, shift in zip(group, targets, shifts)
             for t, a in enumerate(cycle)]
            for targets in itertools.permutations(group)
            for shifts in itertools.product(range(n), repeat=len(group))
        ])
    return tuple(sorted(_conjugator([pair for pairs in choice for pair in pairs])
                        for choice in itertools.product(*factors)))


@lru_cache(maxsize=None)
def _classes(m: int) -> dict[tuple[int, ...], tuple[_Conjugator, ...] | None]:
    """The conjugacy classes of S_m, one per cycle type: representative ->
    centralizer, in the image order of the representatives.

    The representative is the class minimum: the fixed points first, then the
    cycles by increasing length, each on consecutive points (i -> i+1, last ->
    first).  Its centralizer is listed as conjugator pairs, except the
    identity's for m >= 2: that is the whole group, given as None.  For
    m <= 1 the whole group is the one conjugator, listed like the others, so
    that the enumeration fills a tail of identities in one product."""
    _check_grade(m)
    table = []
    for lengths in _cycle_types(m):
        rep, start = [], 1
        for n in lengths:
            rep += range(start + 1, start + n)
            rep.append(start)
            start += n
        whole = m > 1 and len(lengths) == m
        table.append((tuple(rep), None if whole else _centralizer(lengths)))
    return dict(sorted(table))


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
#: (grade, name) -> images: the names perm_name prints, read back
_IMAGES_BY_NAME = {(len(img), name): img for img, name in _NAME_BY_IMAGES.items()}


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
    images = _IMAGES_BY_NAME.get((m, text))
    if images is not None:
        return Perm(images)
    if text in _S3_NAMED:
        raise ValueError(f"name {text!r} is not defined for grade {m}")
    raise ValueError(f"unknown permutation name {text!r}")


class PermTuple(Ordered):
    """An r-tuple of permutations of common grade m (r = 0 is allowed, so the
    grade is carried explicitly)."""

    __slots__ = ("m", "perms")

    def __init__(self, m: int, perms: tuple[Perm, ...]):
        grade = as_int(m)
        if grade is None or grade < 0:
            raise ValueError(f"grade must be a non-negative integer: {m!r}")
        perms = tuple(perms)
        for p in perms:
            if not isinstance(p, Perm):
                raise ValueError(f"a tuple entry must be a Perm, not {p!r}")
            if p.m != grade:
                raise ValueError(f"grade mismatch inside tuple: {p.m} != {grade}")
        set_hash(self, None)
        object.__setattr__(self, "m", grade)
        object.__setattr__(self, "perms", perms)

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


def _arity(kind: str, k: int) -> int:
    """The entries of a label of kind on k subsystems: k - 1 for a pure
    label, whose embedding adds entry k, and k for a mixed one.  Any other
    kind raises ValueError; this is the package's one check of a kind."""
    if kind not in ("pure", "mixed"):
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    return k - 1 if kind == "pure" else k


def _check_arity(sigma: PermTuple, kind: str, k: int) -> None:
    """ValueError unless sigma has the _arity(kind, k) entries of its kind."""
    need = _arity(kind, k)
    if sigma.r != need:
        raise ValueError(f"{kind} label arity {sigma.r} does not match {k} subsystems: "
                         f"it needs {need} entries")


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


def _canonical_images(
    images: tuple[tuple[int, ...], ...], m: int
) -> tuple[tuple[int, ...], ...]:
    """The canonical form of a tuple of image lists: the least conjugate of
    the whole tuple, found one entry at a time.

    Leading identities stay.  The first other entry sigma_j goes to the
    representative of its class; the conjugators that put it there are the
    coset C(rep)·b0, where b0 lays sigma_j's cycles onto the representative's
    and C(rep) is the class centralizer.  Every later entry is carried over by
    b0, and only the part of C(rep) that gives it its least image is kept."""
    classes = _classes(m)
    identity = tuple(range(1, m + 1))
    for j, sigma in enumerate(images):
        if sigma != identity:
            break
    else:
        return images
    rest = images[j:]
    keep = classes.get(sigma)
    if keep is None:  # sigma is not its class representative
        # b0 lays the cycles by length, so the fixed points first, onto
        # consecutive points
        points = itertools.chain.from_iterable(sorted(_cycles(sigma), key=len))
        vmap, order = _conjugator(list(zip(points, identity)))
        rest = [tuple([vmap[tau[i]] for i in order]) for tau in rest]
        keep = classes[rest[0]]
    out = list(images[:j])
    out.append(rest[0])
    for tau in rest[1:]:
        if tau == identity:
            out.append(tau)
        elif len(keep) == 1:
            vmap, order = keep[0]
            out.append(tuple([vmap[tau[i]] for i in order]))
        else:
            conjugates = [tuple([vmap[tau[i]] for i in order]) for vmap, order in keep]
            least = min(conjugates)
            out.append(least)
            keep = [c for c, x in zip(keep, conjugates) if x == least]
    return tuple(out)


#: The builders of trusted perms and labels skip the checks: they make an
#: object and store its slots directly, the fastest way to build the group
#: and the enumeration's output.
_new = object.__new__
_set_images = Perm.images.__set__
_set_m, _set_perms = PermTuple.m.__set__, PermTuple.perms.__set__


def _trusted_perm(images: tuple[int, ...]) -> Perm:
    """The Perm of an image tuple known to be a permutation."""
    p = _new(Perm)
    set_hash(p, None)
    _set_images(p, images)
    return p


def _from_perms(perms: tuple[Perm, ...], m: int) -> PermTuple:
    """The tuple of perms of grade m, built without the grade check."""
    rep = _new(PermTuple)
    set_hash(rep, None)
    _set_m(rep, m)
    _set_perms(rep, perms)
    return rep


def _from_images(images: tuple[tuple[int, ...], ...], m: int) -> PermTuple:
    """The tuple of these image lists, built from the interned perms of
    symmetric_group(m) without per-entry validation."""
    interned = _interned(m)
    return _from_perms(tuple([interned[x] for x in images]), m)


class OrbitLabel(Ordered):
    """Canonical representative of a simultaneous-conjugation class; the
    public identity of one invariant polynomial.  rep is always in canonical
    (lexicographically minimal) form."""

    __slots__ = ("rep",)

    def __init__(self, rep: PermTuple):
        images = tuple([p.images for p in rep.perms])
        if images != _canonical_images(images, rep.m):
            raise ValueError(f"representative {rep} is not canonical")
        set_hash(self, None)
        object.__setattr__(self, "rep", rep)

    @classmethod
    def _trusted(cls, rep: PermTuple) -> "OrbitLabel":
        """The label of a tuple this module has just made or found canonical:
        skips the canonicity check."""
        label = _new(cls)
        set_hash(label, None)
        _set_rep(label, rep)
        return label

    @property
    def m(self) -> int:
        return self.rep.m

    @property
    def r(self) -> int:
        return self.rep.r

    def __repr__(self):
        return f"OrbitLabel(m={self.m}, [{format_label(self.rep)}])"


_set_rep = OrbitLabel.rep.__set__

Label = Union[PermTuple, OrbitLabel]


def as_tuple(label: Label) -> PermTuple:
    return label.rep if isinstance(label, OrbitLabel) else label


def canonical_form(sigma: PermTuple) -> OrbitLabel:
    """Canonical label of sigma's simultaneous-conjugation class.

    Deterministic and idempotent: the lexicographic minimum of the
    concatenated image lists over all conjugates.  Found without scanning
    S_m: the first non-identity entry goes to its class representative, and
    each later entry to its least image under the conjugators left (see
    _canonical_images).  Guarded by MAX_GRADE.
    """
    m = sigma.m
    images = _canonical_images(tuple([p.images for p in sigma.perms]), m)
    return OrbitLabel._trusted(_from_images(images, m))


def _check_sizes(m: int, r: int):
    if m < 0 or r < 0:
        raise ValueError(f"grade and arity must be >= 0, got m={m}, r={r}")


def orbit_count(m: int, r: int) -> int:
    """The number of simultaneous-conjugation orbits of S_m^r, that is
    len(enumerate_orbits(m, r)), without enumerating: by Burnside's lemma,
    sum over cycle types lambda of z_lambda^(r-1), in exact integer
    arithmetic (so r = 0 gives 1).  A class of m!/z_lambda elements each
    fixes z_lambda^r tuples."""
    _check_sizes(m, r)
    group_order = factorial(m)
    orders = map(_centralizer_order, _cycle_types(m))
    return sum(z ** r * (group_order // z) for z in orders) // group_order


def generator_count(m: int, r: int) -> int:
    """The number of transitive orbits of S_m^r, that is
    len(generator_labels(m, r)), without enumerating.

    A label is a multiset of transitive components, so the orbit counts
    a_n = orbit_count(n, r) are the Euler transform of the transitive counts
    t_n; it is inverted by c_n = n a_n - sum_{k<n} c_k a_{n-k} and
    t_n = (c_n - sum_{d|n, d<n} d t_d) / n."""
    _check_sizes(m, r)
    a = [orbit_count(n, r) for n in range(m + 1)]
    c = [0] * (m + 1)
    t = [0] * (m + 1)
    for n in range(1, m + 1):
        c[n] = n * a[n] - sum(c[k] * a[n - k] for k in range(1, n))
        t[n] = (c[n] - sum(d * t[d] for d in range(1, n) if n % d == 0)) // n
    return t[m]


def _check_enum_cost(m: int, r: int):
    _check_sizes(m, r)
    _check_grade(m)
    # A label has r entries, and for m >= 2 there are at least m!^(r-1) >=
    # 2^(r-1) labels (an orbit holds at most m! tuples): a long r is refused
    # on these bounds, before the exact counts, whose cost grows with r.
    if r > ENUM_ENTRY_LIMIT or (m > 1 and r > ENUM_ENTRY_LIMIT.bit_length()):
        raise ResourceLimitError(
            f"orbit enumeration for m={m}, r={r} would return over "
            f"{ENUM_ENTRY_LIMIT} label entries"
        )
    labels = orbit_count(m, r)
    if labels * max(r, 1) > ENUM_ENTRY_LIMIT:
        raise ResourceLimitError(
            f"orbit enumeration for m={m}, r={r} would return {labels} labels "
            f"of {r} entries (limit {ENUM_ENTRY_LIMIT} entries)"
        )


def _orbit_heads(stabilizer: Sequence[_Conjugator] | None, m: int) -> list[tuple[Perm, Any]]:
    """The first element, in symmetric_group order, of each orbit of a group of
    conjugators on S_m, with its stabilizer in that group.  None stands for all
    of S_m, whose orbits are the classes: read from the class table."""
    if stabilizer is None:
        return [(_interned(m)[rep], centralizer) for rep, centralizer in _classes(m).items()]
    heads = []
    seen: set[tuple[int, ...]] = set()
    for p in symmetric_group(m):
        x = p.images
        if x in seen:
            continue
        fixing = []
        for h in stabilizer:
            vmap, order = h
            conj = tuple([vmap[x[i]] for i in order])
            if conj == x:
                fixing.append(h)
            else:
                seen.add(conj)
        heads.append((p, fixing))
    return heads


def enumerate_orbits(m: int, r: int) -> list[OrbitLabel]:
    """All distinct conjugation-orbit labels of r-tuples over S_m, sorted
    lexicographically by concatenated image lists, by orderly generation
    (see the module docstring).  Refused with ResourceLimitError, before
    any work, above MAX_GRADE or when the labels would hold more than
    ENUM_ENTRY_LIMIT entries (see _check_enum_cost)."""
    _check_enum_cost(m, r)
    trusted = OrbitLabel._trusted
    if r == 0:
        return [trusted(_from_perms((), m))]
    group = symmetric_group(m)
    out: list[OrbitLabel] = []
    # depth first: a node is a canonical prefix and its stabilizer (None for
    # all of S_m), and its children go on the stack in reverse so that they
    # come off in order
    stack = [((), None)]
    while stack:
        prefix, stabilizer = stack.pop()
        depth = len(prefix)
        if depth == r:
            out.append(trusted(_from_perms(prefix, m)))
        elif stabilizer is not None and len(stabilizer) == 1:  # every tail is canonical
            out.extend(trusted(_from_perms(prefix + tail, m))
                       for tail in itertools.product(group, repeat=r - depth))
        else:
            stack.extend(reversed([(prefix + (p,), h) for p, h in _orbit_heads(stabilizer, m)]))
    return out


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


class SimClass(Value):
    """One two-sided relabeling class, split into its conjugation classes.

    anchor is the member whose representatives carry the identity in the last
    slot (the class of the embedded pure label); members lists all classes,
    anchor included, sorted.
    """

    __slots__ = ("anchor", "members")

    def __init__(self, anchor: OrbitLabel, members: tuple[OrbitLabel, ...]):
        # sim_decompose passes the anchor object itself: identity first
        if not any(m is anchor for m in members) and anchor not in members:
            raise ValueError("anchor must be one of the members")
        set_hash(self, None)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "members", members)


def sim_decompose(sigma: PermTuple) -> SimClass:
    """Decompose the two-sided class of the embedded tuple (sigma, e) into
    conjugation classes.

    sigma is a pure label with r = k-1 entries; the returned labels live in
    S_m^k.  Every member a·sigma_j·b^-1 of the double coset is conjugate to a
    translate (b·sigma_j, b); two are conjugate exactly when their b are, under
    the common centralizer of the sigma_j.  So one translate per orbit head of
    that centralizer on S_m is canonicalized: at most m! tuples of k entries,
    refused above ENUM_ENTRY_LIMIT entries."""
    m = sigma.m
    k = sigma.r + 1
    _check_grade(m)
    if factorial(m) * k > ENUM_ENTRY_LIMIT:
        raise ResourceLimitError(
            f"double-coset split for m={m}, r={sigma.r} may canonicalize {factorial(m)} "
            f"translates of {k} entries (limit {ENUM_ENTRY_LIMIT} entries)"
        )
    images = _canonical_images(tuple([p.images for p in sigma.perms]), m)
    # refined as the walk does: all of S_m (None) up to the first non-identity
    # entry, a class representative, then the part of its centralizer fixing each entry
    stabilizer = None
    for x in images:
        stabilizer = _classes(m)[x] if stabilizer is None else [
            h for h in stabilizer if tuple([h[0][x[i]] for i in h[1]]) == x]
    # each translate's canonical images become interned perms as soon as they
    # are found, so the split never holds more than one translate's fresh lists
    members = [
        OrbitLabel._trusted(_from_images(
            _canonical_images(tuple([tuple([b[x - 1] for x in s]) for s in images]) + (b,), m), m))
        for b in [p.images for p, _ in _orbit_heads(stabilizer, m)]
    ]
    # the first head is the identity, fixed by conjugation: the anchor (sigma, e)
    anchor = members[0]
    members.sort(key=lambda label: [p.images for p in label.rep.perms])
    return SimClass(anchor=anchor, members=tuple(members))
