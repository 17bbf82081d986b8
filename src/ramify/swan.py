"""Conductor ideals of degree-p cyclic extensions and their consequences.

For a degree-p cyclic extension L/K of Henselian valued fields of residue
characteristic p, the wild ramification of L/K is measured by an ideal of
the base ring (a `Cut` over the value group) together with a symbolic
differential form, the refined Swan conductor.  Both are read off one case
table, from a symbolic descriptor (equal characteristic or Kummer, naming
the shape of the extension without a series model) or from a concrete
Artin-Schreier datum alpha^p - alpha = f, which `artin_schreier_reduce`
normalizes and `classify_equal_char` reads as an equal-characteristic
descriptor.  A substitution drops the leading term of f and adds its p-th
root g: Frobenius is additive and fixes F_p, so g^p is exactly that term
and f - (g^p - g) needs no power.  One routine makes them,
`SeriesElement.artin_schreier_run`.  The case table:

    conductor         form names       e   residue   cases
    Principal(gen)    a value class    p   trivial   equal char i, Kummer i, iii
    Principal(gen)    units only       1   insep-p   equal char ii, Kummer ii, iv
    whole ring        nothing          1   trivial   equal char iii, Kummer v
    no least element  nothing          1   trivial   defect models

From the conductor cut everything else follows: `galois_image` evaluates
which upper ramification groups surject onto the Galois group, `break_of`
locates the unique jump, and `plan_log_smooth` proposes value-group
enlargements that kill the ramification detected by the conductor form.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .cuts import Cut, open_cut, principal_cut, whole_cut
from .ordered_group import (
    GroupDescriptor,
    GroupElement,
    _frozen,
    _int_only,
    _is_prime,
    _set,
    divide_exact,
    echo,
    int_scale,
    is_positive,
    mod_p_image,
    neg,
    zero,
)
from .series_field import SeriesElement

RESIDUE_TRIVIAL = "trivial"
RESIDUE_INSEP = "insep-p"

FULL_IMAGE = "full"
TRIVIAL_IMAGE = "trivial"


class UndeterminedError(Exception):
    """Raised when a reduction exhausts its budget without a defect model
    explaining the non-termination."""


class ValueClass(NamedTuple):
    """dlog of a monomial of value gamma, as a symbol."""

    gamma: GroupElement


class UnitSymbol(NamedTuple):
    """dlog of a residue unit that is not a p-th power, as a symbol."""

    name: str


DlogTerm = Tuple[int, Union[ValueClass, UnitSymbol]]


class RswSymbol(NamedTuple):
    """Refined Swan conductor: where a generator of the conductor ideal is
    sent, expressed as an F_p-combination of dlog symbols."""

    conductor_generator: GroupElement
    dlog_terms: Tuple[DlogTerm, ...]


class SwanData(NamedTuple):
    """Everything the conductor detects about one extension."""

    conductor: Cut
    rsw: Optional[RswSymbol]
    defect: bool
    e_pred: int
    residue_pred: str
    unramified: bool
    case: Optional[str] = None


class EqualCharSymbolic(NamedTuple):
    """Symbolic equal-characteristic descriptor.

    case "i":   v(f) = -c not p-divisible; optionally a unit factor.
    case "ii":  v(f) = -c p-divisible, leading residue not a p-th power.
    case "iii": f integral, residue outside the Artin-Schreier image.
    """

    p: int
    case: str
    c: Optional[GroupElement] = None
    unit_name: Optional[str] = None
    descriptor: Optional[GroupDescriptor] = None


class KummerSymbolic(NamedTuple):
    """Symbolic descriptor for L = K(a^(1/p)) with zeta_p in the base.

    e0 is the value of zeta_p - 1.  Cases follow the standard table:
    "i" value of a not p-divisible, "ii" residue of a not a p-th power,
    "iii"/"iv" a = 1 + b with 0 < v(b) < p*e0 (value class of b not a p-th
    power, resp. b = g^p * u), "v" a = 1 + (zeta_p - 1)^p * b with residue
    datum outside the Artin-Schreier image (unramified).
    """

    p: int
    case: str
    e0: GroupElement
    v_a: Optional[GroupElement] = None
    v_b: Optional[GroupElement] = None
    unit_name: Optional[str] = None


class ReduceResult(NamedTuple):
    status: str  # "reduced" or "exhausted"
    f: SeriesElement
    case: Optional[str]
    iterations: int


def artin_schreier_reduce(f: SeriesElement, max_iters: int = 64) -> ReduceResult:
    """Normalize an Artin-Schreier right-hand side by substitutions
    f -> f - (g^p - g).

    Each substitution removes a negative p-divisible leading term whose
    residue is a p-th power, and strictly raises the valuation.  The loop
    stops at a case-"i"/"ii"/"iii" normal form, or reports exhaustion
    (which over a dense group signals a defect extension).  The
    substitutions run on the packed keys (``SeriesElement.artin_schreier_run``):
    up to the remaining budget in closed form while the lead's value is the
    only negative one, the terms of value >= 0 riding along, else one at a
    time.  The run refuses a negative budget with ``ValueError``.
    """
    _int_only(max_iters)
    it = 0
    while True:
        # with budget left, a run that ends without a case takes a step
        case, f, steps = f.artin_schreier_run(max_iters - it)
        it += steps
        if case is not None:
            return ReduceResult("reduced", f, case, it)
        if it >= max_iters:
            return ReduceResult("exhausted", f, None, max_iters)


def _principal(case: str, gen: GroupElement, p: int, dlog_terms: Tuple[DlogTerm, ...]) -> SwanData:
    """Conductor Principal(gen) with form gen -> dlog_terms.  A value class
    in the form makes L/K totally ramified (e = p, trivial residue
    extension); a unit alone makes the residue extension inseparable."""
    ramified = any(isinstance(term, ValueClass) for _, term in dlog_terms)
    e, residue = (p, RESIDUE_TRIVIAL) if ramified else (1, RESIDUE_INSEP)
    return SwanData(principal_cut(gen), RswSymbol(gen, dlog_terms), False, e, residue, False, case)


def _unramified(case: str, descriptor: GroupDescriptor) -> SwanData:
    return SwanData(whole_cut(descriptor), None, False, 1, RESIDUE_TRIVIAL, True, case)


def _defect(conductor: Cut) -> SwanData:
    """Conductor with no least element: a defect extension, which no datum realizes."""
    return SwanData(conductor, None, True, 1, RESIDUE_TRIVIAL, False)


def classify_equal_char(datum: Union[SeriesElement, EqualCharSymbolic]) -> SwanData:
    """Conductor data of alpha^p - alpha = f.

    Accepts a series f or a symbolic case descriptor.  A series is reduced
    to its normal form, which is read as a descriptor, so both run through
    the same case table.  An exhausted reduction raises
    ``UndeterminedError``: no single datum explains it.
    """
    if isinstance(datum, SeriesElement):
        red = artin_schreier_reduce(datum)
        if red.status == "exhausted":
            raise UndeterminedError("reduction exhausted its budget with no defect model attached")
        f = red.f
        if red.case == "iii":
            datum = EqualCharSymbolic(f.field.p, "iii", descriptor=f.descriptor)
        else:
            v, lead, _ = f.split_lead()
            unit = str(lead) if any(any(e) for e, _ in lead.terms()) else None
            datum = EqualCharSymbolic(f.field.p, red.case, c=neg(v), unit_name=unit)
    if not isinstance(datum, EqualCharSymbolic):
        raise TypeError(f"cannot classify {type(datum).__name__}")
    desc = datum
    if not _is_prime(desc.p):
        raise ValueError(f"the residue characteristic must be prime, got {echo(desc.p)}")
    d, c = desc.descriptor, desc.c
    if d is not None and c is not None and c.descriptor is not d and c.descriptor != d:
        raise ValueError(f"group mismatch: {d} vs {c.descriptor}")
    if desc.case == "iii":
        if d is None and c is None:
            raise ValueError("case iii needs a group descriptor")
        return _unramified("iii", d if d is not None else c.descriptor)
    if c is None or not is_positive(c):
        raise ValueError(f"case {desc.case} needs a positive conductor value")
    unit_terms: Tuple[DlogTerm, ...] = ()
    if desc.unit_name:
        unit_terms = ((1, UnitSymbol(desc.unit_name)),)
    if desc.case == "i":
        if divide_exact(c, desc.p) is not None:
            raise ValueError(f"case i needs a non-p-divisible value, got {c.value}")
        return _principal("i", c, desc.p, unit_terms + ((1, ValueClass(neg(c))),))
    if desc.case == "ii":
        # the value part of dlog(f) is p-divisible, hence invisible
        if divide_exact(c, desc.p) is None:
            raise ValueError(f"case ii needs a p-divisible value, got {c.value}")
        if not desc.unit_name:
            raise ValueError("case ii needs the residue unit's name")
        return _principal("ii", c, desc.p, unit_terms)
    raise ValueError(f"unknown equal-characteristic case {desc.case!r}")


def classify_kummer_symbolic(desc: KummerSymbolic) -> SwanData:
    """Conductor data of L = K(a^(1/p)) from a symbolic case descriptor."""
    if not _is_prime(desc.p):
        raise ValueError(f"the residue characteristic must be prime, got {echo(desc.p)}")
    if not is_positive(desc.e0):
        raise ValueError("e0 = v(zeta_p - 1) must be positive")
    for v in (desc.v_a, desc.v_b):
        if v is not None:
            desc.e0._check_peer(v)
    pe0 = int_scale(desc.p, desc.e0)
    if desc.case == "i":
        if desc.v_a is None or divide_exact(desc.v_a, desc.p) is not None:
            raise ValueError("case i needs v(a) outside p times the value group")
        return _principal("i", pe0, desc.p, ((1, ValueClass(desc.v_a)),))
    if desc.case == "ii":
        if not desc.unit_name:
            raise ValueError("case ii needs the residue unit's name")
        return _principal("ii", pe0, desc.p, ((1, UnitSymbol(desc.unit_name)),))
    if desc.case in ("iii", "iv"):
        v_b = desc.v_b
        if v_b is None or not is_positive(v_b) or not is_positive(pe0 - v_b):
            raise ValueError("cases iii/iv need 0 < v(b) < p*v(zeta_p - 1)")
        if desc.case == "iii":
            if divide_exact(v_b, desc.p) is not None:
                raise ValueError("case iii needs v(b) outside p times the value group")
            return _principal("iii", pe0 - v_b, desc.p, ((1, ValueClass(v_b)),))
        if divide_exact(v_b, desc.p) is None:
            raise ValueError("case iv needs v(b) in p times the value group")
        if not desc.unit_name:
            raise ValueError("case iv needs the residue unit's name")
        return _principal("iv", pe0 - v_b, desc.p, ((1, UnitSymbol(desc.unit_name)),))
    if desc.case == "v":
        return _unramified("v", desc.e0.descriptor)
    raise ValueError(f"unknown Kummer case {desc.case!r}")


# -- the conductor form in the value group ------------------------------------


def value_group_image(
    rsw: RswSymbol, p: int, targets: Tuple[GroupElement, ...] = ()
) -> Tuple[Tuple[int, GroupElement], ...]:
    """Image of the conductor form in k tensor Gamma', where Gamma' is Gamma
    enlarged by the targets' p-th divisions (``EnlargedGroup``): unit
    symbols vanish, classes in p*Gamma' vanish, equal classes combine mod p."""
    if not _is_prime(p):
        raise ValueError(f"the conductor form is read mod a prime p, got {echo(p)}")
    in_p_multiples = EnlargedGroup(p, targets).in_p_multiples
    combined = {}
    for coeff, term in rsw.dlog_terms:
        if isinstance(term, ValueClass):
            combined[term.gamma] = (combined.get(term.gamma, 0) + coeff) % p
    return tuple((c, g) for g, c in combined.items() if c and not in_p_multiples(g))


# -- ramification group evaluation ---------------------------------------------


def galois_image(conductor: Cut, ideal: Cut) -> str:
    """Image of the upper ramification group at a test ideal over the
    maximal immediate extension: full exactly when the ideal's trace on
    the base contains the conductor cut."""
    if conductor.over_hull:
        raise ValueError("the conductor cut lives over the group")
    if not ideal.over_hull:
        raise ValueError("test ideals live over the divisible hull")
    if ideal.descriptor is not conductor.descriptor and ideal.descriptor != conductor.descriptor:
        raise ValueError("conductor and ideal live over different groups")
    if ideal.is_whole:
        raise ValueError("the unit ideal is not a test ideal")
    return FULL_IMAGE if conductor.subset(ideal.restrict_to_group()) else TRIVIAL_IMAGE


def break_of(conductor: Cut) -> Cut:
    """The unique jump of the ramification filtration: the least hull ideal
    whose trace contains the conductor cut."""
    if conductor.is_whole:
        raise ValueError("an unramified extension has no jump")
    return conductor.hull_closure()


def single_jump_violations(conductor: Cut, ideals: Sequence[Cut]) -> List[str]:
    """One label per violation of the single-jump law on `ideals` and the
    break: the image is full exactly on ideals containing the break, is
    monotone, and is full at the least ideal (the meet) iff at all."""
    brk = break_of(conductor)
    ideals = list(ideals) + [brk]
    full = [galois_image(conductor, ideal) == FULL_IMAGE for ideal in ideals]
    labels = ["jump location" for ideal, f in zip(ideals, full) if f != brk.subset(ideal)]
    for a, fa in zip(ideals, full):
        labels += ["monotonicity" for b, fb in zip(ideals, full) if fa and not fb and a.subset(b)]
    meet = ideals[0]
    for ideal in ideals[1:]:
        if ideal.subset(meet):
            meet = ideal
    if (galois_image(conductor, meet) == FULL_IMAGE) != all(full):
        labels.append("intersection stability")
    return labels


def wild_inertia_check(data: SwanData) -> bool:
    """True when the group at the open ideal above zero is everything,
    which identifies it with the wild inertia subgroup; matches
    ``not data.unramified``."""
    maximal_test = open_cut(data.conductor.descriptor, zero(data.conductor.descriptor, hull=True), over_hull=True)
    return galois_image(data.conductor, maximal_test) == FULL_IMAGE


# -- the log-smooth planner ---------------------------------------------------


class Type2Move(NamedTuple):
    """Adjoin an e-th root of an element with the given value class."""

    e: int
    target: GroupElement


class EnlargedGroup:
    """The value group after type-2 moves: Gamma plus the targets' p-th
    divisions, Gamma' = Gamma + sum Z*t/p.  Only membership in p*Gamma' =
    p*Gamma + sum Z*t is ever needed, and Gamma/p*Gamma is an F_p-vector
    space, so gamma lies in p*Gamma' exactly when its image there lies in
    the F_p-span of the targets' images.  The targets' images are reduced
    to echelon form once, when the group is made, so a membership test
    reduces only gamma's image.  Immutable."""

    __slots__ = ("p", "targets", "_echelon")

    def __init__(self, p: int, targets: Sequence[GroupElement]) -> None:
        if not _is_prime(p):
            raise ValueError(f"an enlarged group divides by a prime p, got {echo(p)}")
        targets = tuple(targets)
        # echelon rows: each has a 1 at its pivot and 0 at every earlier pivot;
        # targets over several groups get none, as every query refuses them
        echelon: List[Tuple[int, List[int]]] = []
        if len({t.descriptor for t in targets}) == 1:
            for t in targets:
                row = _reduce(echelon, mod_p_image(t, p), p)
                pivot = next((i for i, c in enumerate(row) if c), None)
                if pivot is not None:
                    inverse = pow(row[pivot], -1, p)
                    echelon.append((pivot, [c * inverse % p for c in row]))
        _set(self, "p", p)
        _set(self, "targets", targets)
        _set(self, "_echelon", echelon)

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        return f"EnlargedGroup(p={self.p!r}, targets={self.targets!r})"

    def in_p_multiples(self, gamma: GroupElement) -> bool:
        d = gamma.descriptor
        for t in self.targets:
            if t.descriptor is not d and t.descriptor != d:
                raise ValueError(f"group mismatch: {d} vs {t.descriptor}")
        return not any(_reduce(self._echelon, mod_p_image(gamma, self.p), self.p))


def _reduce(echelon: List[Tuple[int, List[int]]], row: List[int], p: int) -> List[int]:
    """A row of F_p^n minus its components along the echelon rows."""
    for pivot, basis_row in echelon:
        c = row[pivot]
        if c:
            row = [(a - c * b) % p for a, b in zip(row, basis_row)]
    return row


def plan_log_smooth(rsw: RswSymbol, p: int) -> Tuple[Type2Move, ...]:
    """One degree-p root adjunction per surviving value class of the
    conductor form.  After the moves every class becomes p-divisible, so
    the transported form vanishes and the extension stops being totally
    ramified."""
    return tuple(Type2Move(p, g) for _, g in value_group_image(rsw, p))


def transported_value_image(
    rsw: RswSymbol, p: int, moves: Sequence[Type2Move]
) -> Tuple[Tuple[int, GroupElement], ...]:
    """The conductor form's value classes after enlarging the group.  The
    enlarged group adds t/p for each move, so every move must adjoin a p-th
    root."""
    targets = []
    for m in moves:
        if not isinstance(m, Type2Move):
            raise TypeError(f"expected a Type2Move, got {type(m).__name__}")
        if type(m.e) is not int or m.e != p:
            raise ValueError(f"only degree-p moves transport, got e = {echo(m.e)} for p = {echo(p)}")
        targets.append(m.target)
    return value_group_image(rsw, p, tuple(targets))
