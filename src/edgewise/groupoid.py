"""Finite groupoids as the homotopical semantics.

Weak equivalence means equivalence of groupoids here, and the homotopy
pullback is the iso-comma groupoid; both are decided exactly, with
witnesses.  ``GROUPOID`` runs the Segal and 2-Segal comparisons of
``checks.Semantics`` one tier up, with comparison functors replacing
comparison tables.  The levelwise construction on triangular arrays of
pointed sets supplies the worked example.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import (combinations_with_replacement, permutations,
                       product as iproduct)
from operator import itemgetter
from types import MappingProxyType

from .cat import FinCategory, LawViolation, _frozen, tabulate_category, \
    validate_category
from .checks import Semantics, _graph_row
# epi_mono_factorize is bound here too, for tracers that wrap it
from .delta import SimplexMap, _ints, epi_mono_factorize
from .errors import InputError
from .sset import (_SHIFT, SimplicialTables, TruncatedSSet, Violation,
                   _comap, _expect, _gather, _not_a_map, _shape, _tables,
                   along, identities, structure_maps, subdivide)

__all__ = [
    "FinGroupoid",
    "validate_groupoid",
    "Functor",
    "functor_violations",
    "identity_functor",
    "compose_functors",
    "iso_classes",
    "groupoid_equivalence",
    "equivalence_verdict",
    "IsoComma",
    "iso_comma",
    "TruncatedSGpd",
    "validate_sgpd",
    "act_gpd",
    "esd_gpd",
    "discrete_sgpd",
    "SgpdComparison",
    "GROUPOID",
    "sgpd_segal_map",
    "sgpd_two_segal_map",
    "sgpd_segal_check",
    "sgpd_two_segal_check",
    "SgpdBetaGamma",
    "sgpd_beta_gamma_equality",
    "s_construction",
]


@dataclass(frozen=True, eq=False, repr=False)
class FinGroupoid(FinCategory):
    """A finite category in which every morphism has a recorded inverse.

    ``inverse`` (empty if not given) is read-only like the other
    tables, and refused like them (``FinCategory``).  ``_well_formed``
    and ``_valid`` are decided on first need and kept, the tables being
    read-only.
    """

    inverse: Mapping = field(default_factory=dict)
    _TABLES = (*FinCategory._TABLES, "inverse")

    @cached_property
    def _well_formed(self) -> bool:
        """Whether no name contains '&', every morphism's inverse is a
        morphism with the swapped endpoints, every identity is a
        morphism from and to its object, every compose entry
        (g, f) -> h is of morphisms with src g = tgt f, src h = src f and
        tgt h = tgt g, and every composable pair has an entry; False
        where a table lacks an entry.  The entries being distinct
        composable pairs, the last is one count: there are
        sum_x out(x) * in(x) of them, over the morphisms' endpoints.
        Every morphism's endpoints are objects by construction."""
        if _reserved(self.objects, self.morphisms) is not None:
            return False
        try:
            ends = {f: (self.src[f], self.tgt[f]) for f in self.morphisms}
            for f, (a, b) in ends.items():
                if ends[self.inverse[f]] != (b, a):
                    return False
            if any(ends[self.identity[a]] != (a, a) for a in self.objects):
                return False
            for (g, f), h in self.compose.items():
                g_src, g_tgt = ends[g]
                f_src, f_tgt = ends[f]
                if g_src != f_tgt or ends[h] != (f_src, g_tgt):
                    return False
        except KeyError:
            return False
        leaving = Counter(a for a, _ in ends.values())
        entering = Counter(b for _, b in ends.values())
        return len(self.compose) == sum(leaving[x] * entering[x]
                                        for x in leaving)

    @cached_property
    def _valid(self) -> bool:
        """Whether no name contains '&' and ``validate_groupoid`` finds
        nothing; ``InputError`` where it raises one."""
        return _reserved(self.objects, self.morphisms) is None and \
            not validate_groupoid(self)


def validate_groupoid(G: FinGroupoid) -> list[LawViolation]:
    """Category laws plus two-sided invertibility of every morphism."""
    out = validate_category(G)
    morset = set(G.morphisms)
    for f in G.morphisms:
        g = G.inverse.get(f)
        if g is None:
            out.append(LawViolation("inverse-totality", (f,),
                                    "no inverse recorded"))
            continue
        if g not in morset:
            out.append(LawViolation("inverse-totality", (f, g),
                                    "inverse is not a morphism"))
            continue
        if G.src.get(g) != G.tgt.get(f) or G.tgt.get(g) != G.src.get(f):
            out.append(LawViolation("inverse-endpoints", (f, g), ""))
            continue
        if G.compose.get((g, f)) != G.identity.get(G.src[f]) or \
                G.compose.get((f, g)) != G.identity.get(G.tgt[f]):
            out.append(LawViolation("inverse-law", (f, g),
                                    "round trip is not the identity"))
    return out


@dataclass(frozen=True)
class Functor:
    """Object and morphism assignments between finite categories.

    Each assignment is a table by ``FinCategory``'s rule (``_frozen``),
    and no field can be rebound.  Two facts are decided on first need
    and kept: whether the tables are a map from the source into the
    target (``_is_map``), and whether ``functor_violations`` finds
    nothing (``_sound``).  ``compose_functors`` records in ``_bases``
    the functors a composite chains, in the order they apply, leaving
    out identities and intermediate composites; it is () for an
    identity and None for a functor given by its tables, and
    ``dataclasses.replace`` resets it and drops both facts.
    """

    source: FinCategory
    target: FinCategory
    on_objects: Mapping
    on_morphisms: Mapping
    name: str = ""
    _bases: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        name = self.name or "a functor"
        for part in ("on_objects", "on_morphisms"):
            object.__setattr__(self, part, _frozen(getattr(self, part),
                                                   f"{part} of {name}"))

    def __repr__(self):
        return f"<functor {self.name or '?'}>"

    @cached_property
    def _is_map(self) -> bool:
        """Whether each table's keys are exactly the source's objects or
        morphisms and its values lie among the target's.

        An identity or a composite is a map when its bases are, its
        tables unread: ``compose_functors`` chains maps only.
        """
        if self._bases is not None:
            return all(F._is_map for F in self._bases)
        return all(table.keys() == set(keys) and
                   set(there).issuperset(table.values())
                   for table, keys, there in (
                       (self.on_objects, self.source.objects,
                        self.target.objects),
                       (self.on_morphisms, self.source.morphisms,
                        self.target.morphisms)))

    @cached_property
    def _sound(self) -> bool:
        """Whether ``functor_violations(self)`` is empty; ``InputError``
        where it raises one.

        A composite whose bases are sound, on a ``_well_formed`` source,
        is sound without a walk: each compose entry of the source is of
        morphisms, each base sends such an entry to one of its target
        with its images, and keeps endpoints and identities, so the
        chain does too.  Any other functor is walked.
        """
        if self._bases is not None and \
                isinstance(self.source, FinGroupoid) and \
                self.source._well_formed and \
                all(F._sound for F in self._bases):
            return True
        return not functor_violations(self)


def functor_violations(F: Functor, composites=None) -> list[LawViolation]:
    """Totality, endpoint preservation, identities, and composition, then
    the keys of either assignment that are not in the source.

    Composition is checked on ``composites``, source composites
    ((g, f), h) in the order their violations are listed; by default
    every item of ``F.source.compose``; ``()`` checks none.  The
    totality and stray-key loops run only where F is not a map
    (``Functor._is_map``), since on a map they find nothing.
    """
    out, stray = [], []
    if not F._is_map:
        objset, morset = set(F.target.objects), set(F.target.morphisms)
        for a in F.source.objects:
            b = F.on_objects.get(a)
            if b is None or b not in objset:
                out.append(LawViolation("object-totality", (a,),
                                        f"image {b!r}"))
        for f in F.source.morphisms:
            g = F.on_morphisms.get(f)
            if g is None or g not in morset:
                out.append(LawViolation("morphism-totality", (f,),
                                        f"image {g!r}"))
        objects, morphisms = set(F.source.objects), set(F.source.morphisms)
        stray = [LawViolation("stray-entry", (a,), "object key is not a "
                              "source object")
                 for a in F.on_objects if a not in objects]
        stray += [LawViolation("stray-entry", (f,), "morphism key is not "
                               "a source morphism")
                  for f in F.on_morphisms if f not in morphisms]
        if out:
            return out + stray
    for f in F.source.morphisms:
        g = F.on_morphisms[f]
        if F.target.src[g] != F.on_objects[F.source.src[f]] or \
                F.target.tgt[g] != F.on_objects[F.source.tgt[f]]:
            out.append(LawViolation("endpoint-preservation", (f, g), ""))
    for a in F.source.objects:
        if F.on_morphisms[F.source.identity[a]] != \
                F.target.identity[F.on_objects[a]]:
            out.append(LawViolation("identity-preservation", (a,), ""))
    if composites is None:
        composites = F.source.compose.items()
    elif not composites:
        return out + stray
    # .get: an invalid source may compose or name non-morphisms; a
    # dict's is faster than a read-only proxy's, and F is read-only
    image, composite = dict(F.on_morphisms).get, F.target.compose.get
    for (g, f), h in composites:
        expected = composite((image(g), image(f)))
        if expected != image(h):
            out.append(LawViolation("composition-preservation", (g, f),
                                    f"{expected!r} != image of {h!r}"))
    return out + stray


def identity_functor(A: FinCategory) -> Functor:
    out = Functor(A, A, MappingProxyType({a: a for a in A.objects}),
                  MappingProxyType({f: f for f in A.morphisms}),
                  name=f"id[{A.name}]")
    object.__setattr__(out, "_bases", ())
    return out


def _maps(*functors):
    """``InputError`` naming the first of these functors that is not a
    map from its source into its target (``Functor._is_map``)."""
    for F in functors:
        if not F._is_map:
            raise InputError(f"{F.name or 'a functor'} is not a map from "
                             "its source into its target; input tables are "
                             "not valid")


def compose_functors(G: Functor, F: Functor) -> Functor:
    """G after F; sources and targets must chain, and both must be maps
    (``_maps``), so the composite is one.  It records the bases of both
    (``Functor._bases``)."""
    if F.target is not G.source:
        raise InputError("functors do not chain")
    _maps(F, G)
    out = Functor(F.source, G.target, _after(G, F, "on_objects"),
                  _after(G, F, "on_morphisms"), name=f"{G.name}.{F.name}")
    object.__setattr__(out, "_bases", tuple(
        base for H in (F, G)
        for base in ((H,) if H._bases is None else H._bases)))
    return out


def _after(G: Functor, F: Functor, part: str) -> Mapping:
    """G's ``part`` table after F's, read-only."""
    table = getattr(G, part)
    return MappingProxyType({a: table[b] for a, b in getattr(F, part).items()})


def iso_classes(G: FinGroupoid) -> dict:
    """Connected components: object -> canonical representative."""
    parent = {a: a for a in G.objects}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for f in G.morphisms:
        ra, rb = find(G.src[f]), find(G.tgt[f])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {a: find(a) for a in G.objects}


def groupoid_equivalence(F: Functor) -> list[LawViolation]:
    """Empty iff F is full, faithful, and essentially surjective.

    Faithfulness witnesses are parallel pairs with equal image;
    fullness witnesses name the unreached target morphism; essential
    surjectivity witnesses name an unreached component representative.
    ``InputError`` if F is not a map (``_maps``).
    """
    _maps(F)
    out = []
    at = dict(F.on_objects)
    for a in F.source.objects:
        for b in F.source.objects:
            image = {}
            for f in F.source.hom(a, b):
                g = F.on_morphisms[f]
                if g in image:
                    out.append(LawViolation(
                        "faithful", (image[g], f), f"both map to {g!r}"))
                image.setdefault(g, f)
            for g in F.target.hom(at[a], at[b]):
                if g not in image:
                    out.append(LawViolation(
                        "full", (a, b, g), "no preimage in this hom-set"))
    classes = iso_classes(F.target)
    reached = {classes[at[a]] for a in F.source.objects}
    for rep in sorted(set(classes.values())):
        if rep not in reached:
            out.append(LawViolation("essentially-surjective", (rep,),
                                    "component never hit"))
    return out


def equivalence_verdict(F: Functor):
    """Collapse the violation list to a (verdict, witness) pair."""
    violations = groupoid_equivalence(F)
    if not violations:
        return "pass", None
    v = violations[0]
    return "fail", (v.law, v.witness)


@dataclass
class IsoComma:
    """The groupoid of triples (a, b, iso F(a) -> G(b)).

    ``obj_data`` and ``mor_data`` recover the components, and so both
    projections, from the generated ids; morphism ids carry the source
    iso so that equal component pairs starting at different isos stay
    distinct.  The groupoid's ``compose`` is a read-only ``Mapping``:
    each composite is computed when it is looked up.
    """

    groupoid: FinGroupoid
    obj_data: dict
    mor_data: dict

    @staticmethod
    def obj_id(a, b, gamma):
        return f"{a}&{b}&{gamma}"

    @staticmethod
    def mor_id(p, q, gamma):
        return f"{p}&{q}&{gamma}"


class _IsoCommaCompose(Mapping):
    """The compose table of an iso-comma groupoid, read-only and lazy.

    (p2, q2, γ2) after (p1, q1, γ1) is (p2∘p1, q2∘q1, γ1), composed in
    the legs' sources.  A key that is not a composable pair of
    morphisms is missing; every composable pair has its composite, by
    the checks ``iso_comma`` makes on entry.  Iterating lists each m1 in
    morphism order, then each m2 leaving its target, and ``len`` counts
    those pairs without listing them; both read an index of the
    morphisms by source object, built on first use.
    """

    def __init__(self, morphisms, mor_data, src, tgt, by_signature,
                 first_compose, second_compose):
        self._morphisms, self._mor_data = morphisms, mor_data
        self._src, self._tgt = src, tgt
        self._by_signature = by_signature
        self._first, self._second = first_compose, second_compose

    @cached_property
    def _by_src_obj(self):
        index = {}
        for m in self._morphisms:
            index.setdefault(self._src[m], []).append(m)
        return index

    def __getitem__(self, key):
        composite = self.get(key)
        if composite is None:
            raise KeyError(key)
        return composite

    def get(self, key, default=None):
        try:
            m2, m1 = key
            p2, q2, _ = self._mor_data[m2]
            p1, q1, _ = self._mor_data[m1]
        except (KeyError, TypeError, ValueError):
            return default
        if self._src[m2] != self._tgt[m1]:
            return default
        return self._by_signature[(self._first[(p2, p1)],
                                   self._second[(q2, q1)], self._src[m1])]

    def __contains__(self, key):
        try:
            m2, m1 = key
            return self._src[m2] == self._tgt[m1]
        except (KeyError, TypeError, ValueError):
            return False

    def __iter__(self):
        tgt, by_src_obj = self._tgt, self._by_src_obj
        for m1 in self._morphisms:
            for m2 in by_src_obj.get(tgt[m1], ()):
                yield m2, m1

    def __len__(self):
        tgt, by_src_obj = self._tgt, self._by_src_obj
        return sum(len(by_src_obj.get(tgt[m1], ())) for m1 in self._morphisms)


def _reserved(*names):
    """The first of these names that contains the '&' of iso-comma ids,
    or None."""
    return next((nm for group in names for nm in group if "&" in str(nm)),
                None)


def iso_comma(F: Functor, G: Functor) -> IsoComma:
    """Homotopy pullback of F and G: match objects up to a chosen iso.

    The common codomain C must be a groupoid; a morphism is then any
    pair of source morphisms, the companion iso at the target being
    solved uniquely by conjugation.  Objects, morphisms, identities and
    inverses are listed; composites are computed on lookup.

    The inputs are checked once, on entry: F and G must be maps
    (``_maps``) and no name may contain '&'; then C and both sources
    must be ``_well_formed`` and each leg must keep endpoints and
    identities (``functor_violations`` on no composites), or one
    ``InputError`` refuses them.  No lookup of the build can then miss:
    - C's inverse is total;
    - (Gq, γ) and (Gq∘γ, (Fp)^-1) are composable in C, because both
      legs keep endpoints, and C composes every composable pair;
    - the identity and inverse signatures exist, because the sources'
      identities and inverses have the right endpoints, and
      γ2 = Gq∘γ∘(Fp)^-1 lies in hom(F tgt p, G tgt q);
    - composable iso-comma morphisms have components that compose in
      the sources, because the ids carry no '&', so equal ids have
      equal components, and the sources compose every composable pair.
    """
    C = F.target
    if G.target is not C:
        raise InputError("iso_comma needs a common codomain")
    if not all(isinstance(E, FinGroupoid)
               for E in (C, F.source, G.source)):
        raise InputError("iso_comma needs groupoids throughout")
    _maps(F, G)
    nm = _reserved(F.source.objects, F.source.morphisms, G.source.objects,
                   G.source.morphisms, C.morphisms)
    if nm is not None:
        raise InputError(f"name {nm!r} contains the reserved '&'")
    if not (C._well_formed and F.source._well_formed and
            G.source._well_formed) or functor_violations(F, ()) or \
            functor_violations(G, ()):
        raise InputError("iso_comma needs well-formed groupoids and legs "
                         "that keep endpoints and identities; input tables "
                         "are not valid")
    objects = []
    obj_data = {}
    obj_by_pair = {}
    for a in F.source.objects:
        for b in G.source.objects:
            for gamma in C.hom(F.on_objects[a], G.on_objects[b]):
                oid = IsoComma.obj_id(a, b, gamma)
                objects.append(oid)
                obj_data[oid] = (a, b, gamma)
                obj_by_pair.setdefault((a, b), []).append(oid)
    morphisms = []
    mor_data = {}
    src = {}
    tgt = {}
    by_signature = {}
    # for each source object a, the q (in morphism order) whose
    # source is matched with a by some object of the iso-comma
    partners = {a: [q for q in G.source.morphisms
                    if (a, G.source.src[q]) in obj_by_pair]
                for a in F.source.objects}
    for p in F.source.morphisms:
        Fp_inv = C.inverse[F.on_morphisms[p]]
        a = F.source.src[p]
        for q in partners[a]:
            Gq = G.on_morphisms[q]
            for oid in obj_by_pair[(a, G.source.src[q])]:
                gamma = obj_data[oid][2]
                gamma2 = C.compose[(C.compose[(Gq, gamma)], Fp_inv)]
                mid = IsoComma.mor_id(p, q, gamma)
                morphisms.append(mid)
                mor_data[mid] = (p, q, gamma)
                src[mid] = oid
                tgt[mid] = IsoComma.obj_id(F.source.tgt[p],
                                           G.source.tgt[q], gamma2)
                by_signature[(p, q, oid)] = mid
    identity = {oid: by_signature[(F.source.identity[a],
                                   G.source.identity[b], oid)]
                for oid, (a, b, _) in obj_data.items()}
    inverse = {mid: by_signature[(F.source.inverse[p], G.source.inverse[q],
                                  tgt[mid])]
               for mid, (p, q, _) in mor_data.items()}
    morphisms = tuple(morphisms)
    compose = _IsoCommaCompose(morphisms, mor_data, src, tgt, by_signature,
                              F.source.compose, G.source.compose)
    src, tgt, identity, inverse = map(MappingProxyType,
                                      (src, tgt, identity, inverse))
    H = FinGroupoid(tuple(objects), morphisms, src, tgt, identity, compose,
                    name=f"({F.name})x^h({G.name})", inverse=inverse)
    return IsoComma(H, obj_data, mor_data)


@dataclass(frozen=True)
class TruncatedSGpd(SimplicialTables):
    """A truncated simplicial object in finite groupoids.

    Structure maps are functors and the simplicial identities are
    required strictly, on objects and on morphisms alike.  The
    constructor enforces basic shape by the set tier's rule, reading no
    table entry: a natural truncation N, N + 1 ``FinGroupoid`` levels
    (kept as a tuple), and stores keyed by in-range (n, i) ``int``
    pairs whose maps are ``Functor``s between those level objects; a
    store may lack keys.  Anything else is an ``InputError``.  Fields
    cannot be reassigned and each store is a read-only copy; the
    levels and functors were checked by their own constructors, and
    their tables are read-only too.  So nothing a check reads can
    change after it is built, and the facts the checks decide about
    levels and functors are kept on them.  The first structure functor
    that is not a map of levels is kept too (``_non_map``): ``act_gpd``,
    ``esd_gpd`` and the checks refuse it on entry (``_of_maps``).
    """

    truncation: int
    levels: tuple
    face: Mapping
    degeneracy: Mapping
    name: str = ""

    def __post_init__(self):
        levels = _shape(self.truncation, self.levels,
                        lambda G: _expect(G, FinGroupoid))
        object.__setattr__(self, "levels", levels)
        for kind in _SHIFT:
            store = {}
            for n, i, F in self._keyed(getattr(self, kind), kind):
                if not (isinstance(F, Functor) and F.source is levels[n] and
                        F.target is levels[n + _SHIFT[kind]]):
                    raise InputError(
                        f"{kind} ({n}, {i}) is not a functor from level {n} "
                        f"into level {n + _SHIFT[kind]}")
                store[n, i] = F
            object.__setattr__(self, kind, MappingProxyType(store))

    @cached_property
    def _non_map(self):
        """(kind, n, i) of the first structure functor, in
        ``structure_maps`` order, that is not a map from its level into
        its target level (``Functor._is_map``), or None; ``InputError``
        where the store lacks a key before it."""
        return next((key for key in structure_maps(self.truncation)
                     if not self._map(*key)._is_map), None)


def _of_maps(Y: TruncatedSGpd) -> TruncatedSGpd:
    """Y, or ``InputError`` unless it is a ``TruncatedSGpd`` whose
    structure functors are all maps of levels: the set tier's text
    (``sset._not_a_map``) for the first that is not (``_non_map``)."""
    _expect(Y, TruncatedSGpd)
    if Y._non_map is not None:
        raise _not_a_map(*Y._non_map)
    return Y


def validate_sgpd(Y: TruncatedSGpd) -> list[Violation]:
    """Valid groupoids, valid functors, strict simplicial identities.

    Each failing identity is reported once, at the first disagreeing key
    in the order of its first-applied functor's table, objects before
    morphisms.  Identities are listed by name, level and reversed indices.
    The level count and each functor's ends were checked when Y was
    built; a store that lacks keys is reported as a shape violation.
    """
    _expect(Y, TruncatedSGpd)
    out = []
    N = Y.truncation
    for n, G in enumerate(Y.levels):
        for v in validate_groupoid(G):
            out.append(Violation("groupoid", n, (), str(v.witness), v.law))
    for kind in _SHIFT:
        expected = {(n, i) for k, n, i in structure_maps(N) if k == kind}
        if set(Y._store(kind)) != expected:
            return out + [Violation("shape", N, (), "", f"{kind} keys wrong")]
    for kind in _SHIFT:
        for (n, i), F in Y._store(kind).items():
            out += [Violation("functor", n, (i,), str(v.witness),
                              f"{kind} {v.law}")
                    for v in functor_violations(F)]
    if out:
        return out

    # every functor is now total on its source with no stray keys
    order = ("dd", "ss", "ds")
    for identity, n, indices, lhs, rhs in sorted(identities(N), key=lambda t: (
            order.index(t[0]), t[1], t[2][::-1])):
        for part in ("on_objects", "on_morphisms"):
            def table(kind, m, i):
                return getattr(getattr(Y, kind)[m, i], part)

            cells = list(table(*lhs[0]))
            where = next((c for c, a, b in zip(cells, along(cells, lhs, table),
                                               along(cells, rhs, table))
                          if a != b), None)
            if where is not None:
                out.append(Violation(identity, n, indices, str(where), ""))
                break
    return out


def act_gpd(alpha: SimplexMap, Y: TruncatedSGpd) -> Functor:
    """The structure functor of Y at a monotone map, contravariantly.

    The face and degeneracy functors are composed along alpha's
    generator path (``generator_maps``), which is cached per map: one
    store lookup and one functor composition per generator.  A
    structure functor of Y that is not a map of levels is refused on
    entry, with the text ``act_positions`` gives such a table
    (``_of_maps``), whether or not the path reads it.  The path is
    walked next, so a map beyond the truncation raises the
    ``InputError`` that ``act_positions`` raises.
    """
    functors = [F for F, _ in _of_maps(Y).generator_maps(alpha)]
    out = identity_functor(Y.levels[alpha.cod_dim])
    for F in functors:
        out = compose_functors(F, out)
    return out


def esd_gpd(Y: TruncatedSGpd) -> TruncatedSGpd:
    """Subdivision one tier up: level n is Y's level 2n+1.  A structure
    functor that is not a map of levels is refused (``_of_maps``)."""
    return subdivide(_of_maps(Y), act_gpd)


def _discrete_groupoid(cells, name):
    ident = {c: f"i({c})" for c in cells}
    morphisms = tuple(ident[c] for c in cells)
    src = MappingProxyType({ident[c]: c for c in cells})
    return FinGroupoid(tuple(cells), morphisms, src, src,
                       MappingProxyType(ident),
                       MappingProxyType({(f, f): f for f in morphisms}),
                       name=name,
                       inverse=MappingProxyType({f: f for f in morphisms}))


def discrete_sgpd(X: TruncatedSSet) -> TruncatedSGpd:
    """View a simplicial set as a levelwise-discrete simplicial groupoid.

    Each table c -> v is lifted to the identities i(c) -> i(v), named
    as ``_discrete_groupoid`` names them, so a table that is not a map
    of levels lifts to a functor that is not one either.  The lifted
    functors are named "kind(n,i)", as ``io.load_sgpd`` names them.
    """
    _expect(X, TruncatedSSet)
    levels = tuple(_discrete_groupoid(X.level(n), f"{X.name}[{n}]")
                   for n in range(X.truncation + 1))

    def lift(kind, n, i):
        table = X._names(kind, n, i)
        return Functor(levels[n], levels[n + _SHIFT[kind]], table,
                       {f"i({c})": f"i({v})" for c, v in table.items()},
                       name=f"{kind}({n},{i})")

    return TruncatedSGpd(X.truncation, levels, *_tables(X.truncation, lift),
                         name=f"disc({X.name})" if X.name else "disc")


@dataclass
class SgpdComparison:
    """A comparison functor into an iso-comma, with its verdict.

    ``parts`` gives each object and each morphism of ``source`` its
    three components: its images under the two factors and the
    identity at its image in the shared face.  The iso-comma of
    ``legs`` and the functor into it, whose ids are made of those
    components, are built on first access where the row was decided
    without them (``_factors_sound``).
    """

    kind: str
    indices: tuple
    source: FinGroupoid = field(repr=False)
    parts: tuple = field(repr=False)
    legs: tuple = field(repr=False)
    verdict: str
    witness: tuple | None
    codomain_size: int

    @property
    def domain_size(self):
        return len(self.source.objects)

    @cached_property
    def comma(self) -> IsoComma:
        return iso_comma(*self.legs)

    @cached_property
    def functor(self) -> Functor:
        return _functor_into(self.comma, self.source, self.parts,
                             f"{self.kind}{self.indices}")


def _functor_into(IC: IsoComma, A, parts, name) -> Functor:
    """The functor from A into IC whose ids are made of ``parts``."""
    objects, morphisms = parts
    return Functor(A, IC.groupoid, MappingProxyType(
        {x: IC.obj_id(*t) for x, t in objects.items()}), MappingProxyType(
        {f: IC.mor_id(*t) for f, t in morphisms.items()}), name=name)


def _equivalence(kind, indices, Y, first, second, leg_first, leg_second,
                 shared) -> SgpdComparison:
    """Groupoid semantics: the functor into the iso-comma of the legs.

    The functor at ``shared`` must equal both composites of a factor
    with its leg strictly, so every chosen iso is an identity.  The
    acts are maps of levels (``act_gpd``), so each lookup of their
    tables finds its entry.  A graph row (``checks._graph_row``)
    passes without its iso-comma where ``_factors_sound`` holds and the
    legs' target is ``_valid``.  Any other row builds its iso-comma,
    which refuses legs and levels it cannot build from on entry, and
    checks the comparison H into it on no composites where
    ``_factors_sound`` holds and H keeps endpoints and identities, and
    on every composite otherwise.
    """
    flip = _graph_row(first, second, leg_first, leg_second)
    n = first.cod_dim
    first, second, leg_first, leg_second, shared = (
        act_gpd(alpha, Y)
        for alpha in (first, second, leg_first, leg_second, shared))
    A = Y.level(n)
    C = leg_first.target
    graph = flip is not None and C._valid and \
        _factors_sound(A, first, second)
    IC = None if graph else iso_comma(leg_first, leg_second)
    objects = {}
    for x in A.objects:
        a, b, s = first.on_objects[x], second.on_objects[x], \
            shared.on_objects[x]
        if leg_first.on_objects[a] != s or leg_second.on_objects[b] != s:
            raise InputError(f"legs disagree at object {x!r}; input is not "
                             "strictly simplicial")
        objects[x] = (a, b, C.identity[s])
    morphisms = {f: (first.on_morphisms[f], second.on_morphisms[f],
                     C.identity[shared.on_objects[A.src[f]]])
                 for f in A.morphisms}
    parts, legs = (objects, morphisms), (leg_first, leg_second)
    if graph:
        # the iso-comma has an object per x and γ leaving F x (entering
        # it, flipped; inverses match the two)
        leaving = Counter(C.src[g] for g in C.morphisms)
        size = sum(leaving[shared.on_objects[x]] for x in A.objects)
        return SgpdComparison(kind, tuple(indices), A, parts, legs, "pass",
                              None, size)
    H = _functor_into(IC, A, parts, f"{kind}{indices}")
    if not (_factors_sound(A, first, second) and
            not functor_violations(H, ())):
        bad = functor_violations(H)
        if bad:
            raise InputError(f"comparison is not a functor: {bad[0]}")
    verdict, witness = equivalence_verdict(H)
    comp = SgpdComparison(kind, tuple(indices), A, parts, legs, verdict,
                          witness, len(IC.groupoid.objects))
    comp.comma, comp.functor = IC, H
    return comp


def _factors_sound(A, first, second) -> bool:
    """Whether the facts hold under which ``_equivalence`` decides the
    comparison H of a row at level A without walking its composites.

    The facts, each kept on its object once decided:
    - A is a groupoid in which no name contains '&', every morphism's
      endpoints are objects, its inverse is a morphism with the
      swapped endpoints, every identity is a morphism from and to its
      object, every compose key (g, f) -> h is of morphisms with
      src g = tgt f, src h = src f and tgt h = tgt g, and every
      composable pair is a key (``A._well_formed``);
    - each factor maps into its leg's source, and
      ``functor_violations`` of it is empty (``_sound``).
    Tables the facts cannot read refuse them.  A is a ``FinGroupoid``,
    each factor's target is its leg's source and the legs share their
    target by construction: a ``TruncatedSGpd``'s functors join its
    level objects, and so do its acts (``act_gpd``).

    Any row.  When also ``functor_violations(H, ())`` is empty, H keeps
    every composite: each composite (g, f) -> h of A is of morphisms
    of A with src g = tgt f and src h = src f, H keeps those
    endpoints, and its components, read back from the '&'-free ids,
    compose in the legs' sources because the factors keep composites.

    A graph row, whose legs' common target C is valid too: it passes,
    with no witness, and its iso-comma is not built.  One factor and
    its leg are the identities of A and of C, and the other factor is
    the act F: A -> C of the other leg; the shared face is F too, each
    factor after its leg.  H sends x to (x, F x, id) and f to
    (f, F f, id) in the iso-comma of F and the identity of C, the two
    components swapped when the row is flipped; the argument below is
    for the unflipped row, and the flipped one is its mirror.  C is a
    groupoid whose names contain no '&' and ``validate_groupoid(C)`` is
    clean (``C._valid``; C is level 0 or 1), so it is ``_well_formed``
    too.  Then:
    - ``iso_comma`` takes the two legs on entry, F and the identity of
      C keeping endpoints and identities, and so builds without a miss;
      the building of H reads only total tables;
    - H is a functor: its images are objects and morphisms of the
      iso-comma, it keeps endpoints and identities because F does and
      C's unit and inverse laws hold, and it keeps composites as above;
    - H is full and faithful: a morphism (p, q, id) from H x to H y has
      q F(p)^-1 = id, so q = F p and it is H p, and the ids of distinct
      p differ, names being distinct strings without '&';
    - H is essentially surjective: (id, γ, id) goes from H a to any
      object (a, c, γ).
    Over an identity leg the homotopy pullback is the source again
    (Dyckerhoff–Kapranov, arXiv:1212.3563).
    """
    return A._well_formed and first._sound and second._sound


GROUPOID = Semantics("groupoid", _equivalence)


def sgpd_segal_map(Y: TruncatedSGpd, m: int, j: int) -> SgpdComparison:
    """Level-m comparison functor into the iso-comma of the two faces."""
    return GROUPOID.segal_map(Y, m, j)


def sgpd_two_segal_map(Y: TruncatedSGpd, n: int, i: int,
                       j: int) -> SgpdComparison:
    """Polygon-subdivision comparison functor at the edge {i, j}."""
    return GROUPOID.two_segal_map(Y, n, i, j)


def sgpd_segal_check(Y: TruncatedSGpd):
    """Equivalence verdicts for every level-splitting comparison functor;
    ``InputError`` on entry if a structure functor is not a map of
    levels (``_of_maps``)."""
    return GROUPOID.segal_check(_of_maps(Y), sgpd_segal_map)


def sgpd_two_segal_check(Y: TruncatedSGpd, mode: str = "full"):
    """Equivalence verdicts for the polygon comparisons, both sweep
    modes; ``InputError`` on entry if a structure functor is not a map
    of levels (``_of_maps``)."""
    return GROUPOID.two_segal_check(_of_maps(Y), mode, sgpd_two_segal_map)


@dataclass(frozen=True)
class SgpdBetaGamma:
    """Nose-level match of the two comparison functors at one index."""

    m: int
    j: int
    verdict: str
    objects_equal: bool = True
    morphisms_equal: bool = True
    verdicts_equal: bool = True
    mismatch: str | None = None


def sgpd_beta_gamma_equality(Y: TruncatedSGpd, m: int,
                             j: int) -> SgpdBetaGamma:
    """The subdivision comparison equals the polygon one, factors
    swapped; ``InputError`` on entry if a structure functor is not a
    map of levels (``_of_maps``), also where the index is beyond the
    truncation."""
    pair = GROUPOID.beta_gamma(_of_maps(Y), m, j, esd_gpd)
    if pair is None:
        return SgpdBetaGamma(m, j, "out_of_truncation")
    beta, gamma = pair
    # the first object and the first morphism whose β triple is not γ's
    # with the factors swapped, or None
    cells = (beta.source.objects, beta.source.morphisms)
    first = [next((c for c in part if b[c] != (g[c][1], g[c][0], g[c][2])),
                  None) for part, b, g in zip(cells, beta.parts, gamma.parts)]
    objects_equal, morphisms_equal = (c is None for c in first)
    mismatch = next((str(c) for c in first if c is not None), None)
    verdicts_equal = beta.verdict == gamma.verdict
    ok = objects_equal and morphisms_equal and verdicts_equal
    return SgpdBetaGamma(m, j, "pass" if ok else "fail", objects_equal,
                         morphisms_equal, verdicts_equal, mismatch)


# ---------------------------------------------------------------------------
# Triangular arrays of pointed sets.
#
# A pointed set of total cardinality <= c is stored by its count of
# non-basepoint elements (0 .. c-1, basepoint implicit); a pointed map
# is a tuple over the source's non-base elements with -1 for the
# basepoint.  A level-n object is the full triangle {(i,j): i<=j<=n}
# with horizontal injections and vertical surjections, every short
# square bicartesian.
#
# A morphism phi: A -> B of arrays is a permutation phi_ij of each slot
# commuting with every inj and surj, and it is fixed by its top row
# p = phi_0n.  phi_0j is p restricted along inj(0,j,n), so p must carry
# the image of A.inj(0,j,n) onto that of B.inj(0,j,n) for every j; and
# for i >= 1, surj(0,i,j): A_0j -> A_ij is onto with fiber the image of
# inj(0,i,j), one-to-one off it, so phi_ij is the map phi_0j induces on
# that quotient.  Every such p gives a morphism, and composites and
# inverses are those of the top rows.
#
# An array is generated by its top-row data: the sizes A_0j, the step
# injections inj(0,j-1,j) and the quotients surj(0,j,k), 1 <= j <= k.
# ``_enumerate_arrays`` draws exactly this data and ``_assemble_array``
# derives the rest, so an array is keyed by it (``_key``).  Whether the
# derived arrays are coherent depends only on (c, n); the test suite
# checks every array of every level that ``s_construction`` accepts.


def _pcompose(g, f):
    # index -1 of g extended by the basepoint is the basepoint
    return _gather(g + (-1,), f)


def _pidentity(s):
    return tuple(range(s))


@dataclass
class _Array:
    n: int
    sizes: dict     # (i,j) -> non-base count
    inj: dict       # (i,j,k) -> pointed map A_ij -> A_ik, i<=j<=k
    surj: dict      # (i,j,k) -> pointed map A_ik -> A_jk, i<=j<=k


def _quotients(size, image):
    """The pointed maps from a set of ``size`` that send exactly
    ``image`` to the basepoint and the rest one-to-one onto the rest."""
    rest = [x for x in range(size) if x not in image]
    out = []
    for perm in permutations(range(len(rest))):
        table = [-1] * size
        for x, v in zip(rest, perm):
            table[x] = v
        out.append(tuple(table))
    return out


def _enumerate_arrays(c, n):
    q_keys = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    for sizes0 in combinations_with_replacement(range(c), n):
        full0 = (0,) + sizes0    # A_{00}..A_{0n} non-base counts
        step_pools = [permutations(range(full0[j]), full0[j - 1])
                      for j in range(1, n + 1)]
        for steps in iproduct(*step_pools):
            inj0 = {(j, j): _pidentity(full0[j]) for j in range(n + 1)}
            for j in range(n + 1):
                for k in range(j + 1, n + 1):
                    inj0[(j, k)] = _pcompose(steps[k - 1], inj0[(j, k - 1)])
            q_pools = [_quotients(full0[k], inj0[(j, k)]) for j, k in q_keys]
            for qs in iproduct(*q_pools):
                q = dict(zip(q_keys, qs))
                yield _assemble_array(n, full0, inj0, q)


def _assemble_array(n, full0, inj0, q):
    sizes = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            sizes[(i, j)] = full0[j] - full0[i]
    qinv = {}
    for (j, k), table in q.items():
        qinv[(j, k)] = {v: x for x, v in enumerate(table) if v != -1}
    inj = {}
    surj = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                if i == 0:
                    inj[(i, j, k)] = inj0[(j, k)]
                    surj[(i, j, k)] = q[(j, k)] if j > 0 else \
                        _pidentity(full0[k])
                else:
                    inj[(i, j, k)] = tuple(
                        q[(i, k)][inj0[(j, k)][qinv[(i, j)][x]]]
                        for x in range(sizes[(i, j)]))
                    surj[(i, j, k)] = tuple(
                        (q[(j, k)][qinv[(i, k)][x]] if j < k else -1)
                        if j > i else x
                        for x in range(sizes[(i, k)]))
    return _Array(n, sizes, inj, surj)


def _key(A: _Array, values):
    """A's generating data reindexed along the monotone map with these
    values: the sizes along the top row, the step injections and the
    quotients ``surj(v0, v_j, v_k)`` for 1 <= j <= k."""
    v0 = values[0]
    return (tuple(A.sizes[(v0, v)] for v in values),
            tuple(A.inj[(v0, u, v)] for u, v in zip(values, values[1:])),
            tuple(A.surj[(v0, values[j], v)]
                  for j in range(1, len(values)) for v in values[j:]))


def _slots(n):
    return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]


def _top_row_families(A, B, slots):
    """The morphisms of arrays from A to B, as (slot permutations, top
    row) pairs in slot-lexicographic order of the permutations.

    A permutation p of A_{0n} is the top row of a morphism exactly when
    it carries the image of ``A.inj(0,j,n)`` onto that of
    ``B.inj(0,j,n)`` for every j.  The rest of the family follows from
    p: phi_{0j} is p restricted along ``inj(0,j,n)``, and phi_{ij} for
    i >= 1 is induced on the quotient ``surj(0,i,j)``: A_{0j} -> A_{ij},
    which is onto and one-to-one off its fiber.
    """
    n = A.n
    rows = range(1, n + 1)
    a_inj = [A.inj[(0, j, n)] for j in rows]
    b_images = [set(B.inj[(0, j, n)]) for j in rows]
    b_pos = [{v: x for x, v in enumerate(B.inj[(0, j, n)])} for j in rows]
    # the one x of A_{0j} over each y of A_{ij}
    a_lift = {}
    for i, j in slots:
        if i:
            lift = a_lift[(i, j)] = [0] * A.sizes[(i, j)]
            for x, y in enumerate(A.surj[(0, i, j)]):
                if y != -1:
                    lift[y] = x
    out = []
    for p in permutations(range(A.sizes[(0, n)])):
        if any({p[x] for x in f} != im for f, im in zip(a_inj, b_images)):
            continue
        row = [()] + [_gather(pos, _gather(p, f))
                      for f, pos in zip(a_inj, b_pos)]
        out.append((tuple(
            row[j] if i == 0 else
            _gather(B.surj[(0, i, j)], _gather(row[j], a_lift[(i, j)]))
            for i, j in slots), p))
    out.sort()
    return out


def _level_groupoid(c, n, name):
    """The level-n groupoid of coherent arrays of pointed sets.

    The test suite proves every array of every level that
    ``s_construction`` accepts coherent, so none is checked here.  A
    morphism phi: A -> B of arrays is fixed by its top row
    p = phi_{0n} (see ``_top_row_families``), so the category is
    tabulated on (source, target, top row) data: a composite is one
    ``_pcompose`` of two top rows, and identities and inverses are read
    off by top row.  Morphisms are numbered source by source, target by
    target, then in slot-lexicographic order of their families.
    ``obj_id`` finds each object by its generating data (``_key``);
    ``mor_data`` gives each morphism id its (source, target, slot
    permutations) data, slots in ``_slots(n)`` order, and ``by_top_row``
    finds it by (source, target, top row).
    """
    arrays = list(_enumerate_arrays(c, n))
    objects = [f"x{idx}" for idx in range(len(arrays))]
    obj_id = {_key(A, range(n + 1)): oid for oid, A in zip(objects, arrays)}
    by_obj = dict(zip(objects, arrays))
    slots = _slots(n)
    # the sizes along the top row fix every size, so they group the pairs
    shape = {o: tuple(A.sizes[(0, j)] for j in range(n + 1))
             for o, A in by_obj.items()}
    alike = {}
    for o in objects:
        alike.setdefault(shape[o], []).append(o)
    families = []
    data = []
    for o1, A in by_obj.items():
        for o2 in alike[shape[o1]]:
            for fam, p in _top_row_families(A, by_obj[o2], slots):
                families.append((o1, o2, fam))
                data.append((o1, o2, p))
    by_top_row = {key: f"m{k}" for k, key in enumerate(data)}
    tables = tabulate_category(
        objects, data, by_top_row.__getitem__, itemgetter(0), itemgetter(1),
        lambda o: (o, o, _pidentity(by_obj[o].sizes[(0, n)])),
        lambda g, f: (f[0], g[1], _pcompose(g[2], f[2])))
    mor_data = dict(zip(tables[1], families))
    inverse = {
        m: by_top_row[(ob, oa, tuple(sorted(range(len(p)),
                                            key=p.__getitem__)))]
        for m, (oa, ob, p) in zip(tables[1], data)}
    G = FinGroupoid(*tables, name=name, inverse=MappingProxyType(inverse))
    return G, by_obj, obj_id, mor_data, by_top_row, slots


def s_construction(max_card: int, truncation: int) -> TruncatedSGpd:
    """Levelwise groupoids of coherent triangular arrays of pointed sets.

    The universe is pointed sets of total cardinality at most
    ``max_card`` (basepoint included).  Faces delete an index of the
    triangle, degeneracies duplicate one; both are strict relabelings,
    so the simplicial identities hold on the nose.  A relabeling sends
    an array to the one with its relabeled generating data, and a
    morphism to the one whose top row is its permutation at the slot
    that the relabeled top row comes from.  Both arguments must be
    ints.  Every array of every accepted (max_card, truncation) is
    proved coherent by the test suite, not on each build.
    """
    _ints("s_construction", max_card, truncation)
    if not 1 <= max_card <= 3:
        raise InputError("max_card must be between 1 and 3")
    if not 0 <= truncation <= 4:
        raise InputError("truncation must be between 0 and 4")
    built = [_level_groupoid(max_card, n, f"S{n}")
             for n in range(truncation + 1)]
    levels = tuple(b[0] for b in built)

    def transport(kind, n, i):
        """The (kind, n, i) functor, level n -> level m, reindexing
        along the map [m] -> [n] of Δ whose action it is."""
        values, m = _comap(kind, n, i).values, n + _SHIFT[kind]
        G, by_obj, _, mor_data, _, slots = built[n]
        H, _, t_obj_id, _, t_by_top_row, _ = built[m]
        on_objects = {o: t_obj_id[_key(A, values)]
                      for o, A in by_obj.items()}
        # the new top row is the slot (values[0], values[m]), empty
        # where the two meet
        top = (values[0], values[m])
        at = slots.index(top) if top[0] != top[1] else None
        on_morphisms = {
            mid: t_by_top_row[(on_objects[o1], on_objects[o2],
                               () if at is None else fams[at])]
            for mid, (o1, o2, fams) in mor_data.items()}
        return Functor(G, H, MappingProxyType(on_objects),
                       MappingProxyType(on_morphisms), name=f"S({values})")

    return TruncatedSGpd(truncation, levels, *_tables(truncation, transport),
                         name=f"s_construction({max_card})")
