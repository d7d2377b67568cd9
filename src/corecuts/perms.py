"""Permutations, disjoint-cycle structure, and generator classification.

Conventions used throughout the package:

* Coordinate indices are 1-based in permutation notation ("(1,2,3)") and
  0-based in vectors.
* A permutation maps index i to ``images[i-1]``.
* Applying a permutation p to a vector v moves the value at coordinate i
  to coordinate p(i):  ``apply(p, v)[p(i)-1] = v[i-1]``.  With this
  convention the cycle (1,2,...,n) acts as the rotation
  (v_0,...,v_{n-1}) -> (v_{n-1},v_0,...,v_{n-2}).
* Words of generators compose left to right: the word [g, h] means
  "apply g, then h".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import InputError, OrbitCapExceeded

DEFAULT_ORBIT_CAP = 10**6
DEFAULT_MAX_WORD_LEN = 4


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InputError(f"not a bijection on 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """Image of the 1-based index i."""
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(len(self.images)))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation "p then q": i -> q(p(i))."""
    if p.n != q.n:
        raise InputError("cannot compose permutations of different degree")
    return Permutation(tuple(q.images[p.images[i] - 1] for i in range(p.n)))


def inverse(p: Permutation) -> Permutation:
    images = [0] * p.n
    for i in range(1, p.n + 1):
        images[p.images[i - 1] - 1] = i
    return Permutation(tuple(images))


def apply(p: Permutation, v: Sequence) -> tuple:
    """Permute vector entries: the value at coordinate i moves to p(i)."""
    if len(v) != p.n:
        raise InputError(f"vector length {len(v)} != permutation degree {p.n}")
    out = [None] * p.n
    for i in range(1, p.n + 1):
        out[p.images[i - 1] - 1] = v[i - 1]
    return tuple(out)


@dataclass(frozen=True)
class Cycle:
    """An ordered cycle of distinct 1-based indices; length >= 2.  The
    support is kept as a tuple of ints: a cycle keys the planner's set
    caches (``engine``), and True or 1.0 compares and hashes as 1 but
    names another variable."""

    support: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(self.support))
        for i in self.support:
            if isinstance(i, bool) or not isinstance(i, int):
                raise InputError(f"cycle index must be an integer, not {i!r}")
        if len(self.support) < 2:
            raise InputError(f"cycle needs at least two indices: {self.support}")
        if len(set(self.support)) != len(self.support):
            raise InputError(f"cycle indices not distinct: {self.support}")

    @property
    def k(self) -> int:
        return len(self.support)

    def as_permutation(self, n: int) -> Permutation:
        images = list(range(1, n + 1))
        s = self.support
        for pos, i in enumerate(s):
            images[i - 1] = s[(pos + 1) % len(s)]
        return Permutation(tuple(images))

    def __str__(self) -> str:
        return "(" + ",".join(str(i) for i in self.support) + ")"


class GroupClass(Enum):
    DISJOINT_CYCLES = "DisjointCycles"
    PRODUCT_OF_DISJOINT_CYCLES = "ProductOfDisjointCycles"
    MIXED_DISJOINT = "MixedDisjoint"
    NON_DISJOINT = "NonDisjoint"


@dataclass
class GroupSpec:
    """Generators of a permutation group plus derived cycle structure."""

    n: int
    generators: list[Permutation]
    group_class: Optional[GroupClass] = None
    selected_cycles: list[Cycle] = field(default_factory=list)

    def active_indices(self) -> set[int]:
        return {i for cyc in self.selected_cycles for i in cyc.support}


def parse_cycles(text: str) -> list[Cycle]:
    """Parse "(1,2,3)(4,5)" into a list of cycles (fixed points omitted)."""
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty cycle string")
    cycles = []
    pos = 0
    while pos < len(s):
        if s[pos] != "(":
            raise InputError(f"expected '(' at position {pos} in {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise InputError(f"unbalanced parenthesis in {text!r}")
        body = s[pos + 1 : end]
        try:
            indices = tuple(int(tok) for tok in body.split(","))
        except ValueError as exc:
            raise InputError(f"bad cycle {body!r} in {text!r}") from exc
        if any(i < 1 for i in indices):
            raise InputError(f"cycle indices must be >= 1: {body!r}")
        if len(indices) >= 2:
            cycles.append(Cycle(indices))
        pos = end + 1
    return cycles


def permutation_from_cycles(cycles: Iterable[Cycle], n: int) -> Permutation:
    """Compose the cycles left to right into one permutation of degree n."""
    p = identity(n)
    for cyc in cycles:
        if max(cyc.support) > n:
            raise InputError(f"cycle {cyc} exceeds degree {n}")
        p = compose(p, cyc.as_permutation(n))
    return p


def parse_generators(strings: Sequence[str], n: Optional[int] = None) -> GroupSpec:
    """Build a GroupSpec from cycle-notation generator strings.

    The degree n defaults to the largest index mentioned by any generator.
    """
    parsed = [parse_cycles(s) for s in strings]
    used = [i for cycles in parsed for cyc in cycles for i in cyc.support]
    if n is None:
        if not used:
            raise InputError("cannot infer degree from identity generators")
        n = max(used)
    elif used and max(used) > n:
        raise InputError(f"generator index {max(used)} exceeds degree {n}")
    gens = [permutation_from_cycles(cycles, n) for cycles in parsed]
    return GroupSpec(n=n, generators=gens)


def cycle_decomposition(p: Permutation) -> list[Cycle]:
    """Disjoint cycles of p (length >= 2), each starting at its least index."""
    seen = [False] * p.n
    cycles = []
    for start in range(1, p.n + 1):
        if seen[start - 1]:
            continue
        path = [start]
        seen[start - 1] = True
        j = p(start)
        while j != start:
            seen[j - 1] = True
            path.append(j)
            j = p(j)
        if len(path) >= 2:
            cycles.append(Cycle(tuple(path)))
    return cycles


def _supports_pairwise_disjoint(cycle_lists: list[list[Cycle]]) -> bool:
    seen: set[int] = set()
    for cycles in cycle_lists:
        support = {i for cyc in cycles for i in cyc.support}
        if seen & support:
            return False
        seen |= support
    return True


def classify(gs: GroupSpec) -> GroupClass:
    """Classify the generator list by its disjoint-cycle structure.

    DisjointCycles: every generator is a single cycle, supports pairwise
    disjoint across generators.  ProductOfDisjointCycles: one generator
    splitting into >= 2 disjoint cycles.  MixedDisjoint: several
    generators, each a product of cycles, with supports pairwise
    disjoint across generators.  NonDisjoint: anything else.
    The result is stable under permuting the generator list.
    """
    decomps = [cycle_decomposition(g) for g in gs.generators if not g.is_identity()]
    if not decomps:
        gs.group_class = GroupClass.DISJOINT_CYCLES
        return gs.group_class
    if not _supports_pairwise_disjoint(decomps):
        gs.group_class = GroupClass.NON_DISJOINT
    elif all(len(d) == 1 for d in decomps):
        gs.group_class = GroupClass.DISJOINT_CYCLES
    elif len(decomps) == 1:
        gs.group_class = GroupClass.PRODUCT_OF_DISJOINT_CYCLES
    else:
        gs.group_class = GroupClass.MIXED_DISJOINT
    return gs.group_class


def _longest_cycle_len(p: Permutation) -> int:
    cycles = cycle_decomposition(p)
    return max((c.k for c in cycles), default=0)


def select_cycles(gs: GroupSpec, max_word_len: int = DEFAULT_MAX_WORD_LEN) -> list[Cycle]:
    """Choose the pairwise-disjoint working cycles for the search engine.

    For the three disjoint classes this is the union of the generators'
    cycles.  For NonDisjoint generators, search products of generator
    words up to max_word_len (breadth first, left-to-right application)
    and take the disjoint cycles of the element whose longest cycle is
    maximal; ties resolve to the first element found.
    """
    if gs.group_class is None:
        classify(gs)
    if gs.group_class != GroupClass.NON_DISJOINT:
        cycles = [c for g in gs.generators for c in cycle_decomposition(g)]
        # dedup identical cycles coming from repeated generators
        uniq: dict[tuple[int, ...], Cycle] = {}
        for c in cycles:
            uniq.setdefault(c.support, c)
        gs.selected_cycles = list(uniq.values())
        return gs.selected_cycles

    best: Optional[Permutation] = None
    best_len = 0
    queue = deque([identity(gs.n)])
    seen = {identity(gs.n).images}
    depth = {identity(gs.n).images: 0}
    while queue:
        elem = queue.popleft()
        d = depth[elem.images]
        if d >= max_word_len:
            continue
        for g in gs.generators:
            nxt = compose(elem, g)
            if nxt.images in seen:
                continue
            seen.add(nxt.images)
            depth[nxt.images] = d + 1
            queue.append(nxt)
            length = _longest_cycle_len(nxt)
            if length > best_len:
                best_len = length
                best = nxt
    gs.selected_cycles = cycle_decomposition(best) if best is not None else []
    return gs.selected_cycles


def orbit(gs: GroupSpec, z: Sequence, cap: int = DEFAULT_ORBIT_CAP) -> list[tuple]:
    """Orbit of the vector z under the generated group, in BFS order."""
    start = tuple(z)
    out = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for g in gs.generators:
            w = apply(g, v)
            if w not in seen:
                if len(seen) >= cap:
                    raise OrbitCapExceeded(f"orbit exceeds cap {cap}")
                seen.add(w)
                out.append(w)
                queue.append(w)
    return out


def fixed_space_basis(gs: GroupSpec) -> list[tuple[int, ...]]:
    """Orthogonal integer basis of the subspace fixed by the selected cycles.

    One all-ones indicator per selected cycle's support plus one unit
    vector per non-active coordinate.
    """
    basis = []
    for cyc in gs.selected_cycles:
        vec = [0] * gs.n
        for i in cyc.support:
            vec[i - 1] = 1
        basis.append(tuple(vec))
    active = gs.active_indices()
    for i in range(1, gs.n + 1):
        if i not in active:
            vec = [0] * gs.n
            vec[i - 1] = 1
            basis.append(tuple(vec))
    return basis
