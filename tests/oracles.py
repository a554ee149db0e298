"""Independent slow paths that the tests check the library against.

None of this is library code: the Abel-Jacobi closed form builds no jet, and
nothing in `pinchjac` inverts a jet or takes an exponential. These functions
give the series the closed form must agree with, computed the long way: the
jet of a rational function by series division (after a Taylor shift), the
jet inverse by the triangular recurrence, and the truncated exponential by
its power sum. `unit_log_by_powers` takes the logarithm by the power sum of
log(1 + w), with m - 1 jet products, where the library's `unit_log` runs the
log recurrence. `fraction_product` multiplies two series with one `Fraction`
multiply and add per term, where the library sums integer numerators over a
common denominator. Two graph oracles walk the dual graph themselves:
`forest_normalized_torus` solves one scalar per vertex where the library
multiplies around cycles, and `principal` decides linear equivalence from its
definition, with no spanning forest, no logs and no closed form.
`membership_by_cancellation` decides contraction membership by cancelling
leading terms, where the library reads the g-adic digits of f, and
`pairwise_probe` compares every pair of Abel-Jacobi classes, where the library
groups equal classes. Tests import them with `from oracles import ...`.
"""

from __future__ import annotations

from fractions import Fraction

from pinchjac.abel_jacobi import ProbeReport, aj_eval
from pinchjac.algebra import Jet, P1Point, Poly
from pinchjac.contraction import MembershipCertificate, NotMember, _generators
from pinchjac.curve_model import CurveConfig
from pinchjac.errors import CertificateFailure, NonUnit, OrderNonpositive, PinchjacError
from pinchjac.jacobian import jac_eq


class DenominatorVanishes(PinchjacError):
    """The denominator of a rational function vanishes at the chosen center."""


def fraction_product(a, b, size: int) -> tuple[Fraction, ...]:
    """The first `size` coefficients of the product of the series a and b,
    summed term by term in `Fraction` arithmetic."""
    out = [Fraction(0)] * size
    for i, ai in enumerate(a[:size]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: size - i]):
            out[i + j] += ai * bj
    return tuple(out)


def poly_shifted(p: Poly, a) -> Poly:
    """Coefficients of p(s + a): the expansion of p around the point a."""
    a = Fraction(a)
    out = Poly.zero()
    s_plus_a = Poly((a, 1))
    for c in reversed(p.coeffs):
        out = out * s_plus_a + Poly.constant(c)
    return out


def jet_inverse(jet: Jet) -> Jet:
    """Multiplicative inverse of a unit jet; exact at the truncation order."""
    if not jet.is_unit:
        raise NonUnit("cannot invert a jet with zero constant term")
    inv0 = 1 / jet.coeffs[0]
    out = [inv0] + [Fraction(0)] * (jet.order - 1)
    for k in range(1, jet.order):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += jet.coeffs[j] * out[k - j]
        out[k] = -inv0 * acc
    return Jet(jet.order, tuple(out))


def unit_exp(v: Jet) -> Jet:
    """Truncated exponential of a jet with zero constant term."""
    if v.constant_term != 0:
        raise ValueError("unit_exp requires a jet with zero constant term")
    result = Jet.constant(1, v.order)
    power = Jet.constant(1, v.order)
    factorial = 1
    for k in range(1, v.order):
        power = power * v
        factorial *= k
        result = result + power * Fraction(1, factorial)
    return result


def unit_log_by_powers(u: Jet) -> Jet:
    """Truncated logarithm of u / u(0) by the power sum of log(1 + w):
    m - 1 jet products at order m."""
    if not u.is_unit:
        raise NonUnit("unit_log requires a unit jet")
    w = (u * (1 / u.constant_term)) - Jet.constant(1, u.order)
    result = Jet.constant(0, u.order)
    power = Jet.constant(1, u.order)
    sign = 1
    for k in range(1, u.order):
        power = power * w
        result = result + power * Fraction(sign, k)
        sign = -sign
    return result


def jet_of_rational_function(numerator: Poly, denominator: Poly,
                             center: P1Point, order: int) -> Jet:
    """Jet of numerator/denominator at the center, in the canonical coordinate.

    At a finite point a the coordinate is s = t - a; at infinity it is
    s = 1/t, where a polynomial p reads t^deg * p(1/t), its coefficients
    reversed. The denominator must not vanish at the center (for the center
    at infinity this means the function must not have a pole there).
    """
    if order < 1:
        raise OrderNonpositive(f"jet order must be >= 1, got {order}")
    if center.is_infinity:
        dn, dd = numerator.degree, denominator.degree
        if denominator.is_zero or (not numerator.is_zero and dn > dd):
            raise DenominatorVanishes("pole at infinity")
        if numerator.is_zero:
            return Jet.constant(0, order)
        num_local = Poly(tuple(reversed(numerator.coeffs)))
        den_local = Poly(tuple(reversed(denominator.coeffs)))
        valuation = dd - dn
    else:
        a = center.value
        num_local = poly_shifted(numerator, a)
        den_local = poly_shifted(denominator, a)
        if den_local.coefficient(0) == 0:
            raise DenominatorVanishes(f"denominator vanishes at {center}")
        valuation = 0
    den_jet = Jet.make(order, den_local.coeffs[:order])
    series = Jet.make(order, num_local.coeffs[:order]) * jet_inverse(den_jet)
    if valuation == 0:
        return series
    if valuation >= order:
        return Jet.constant(0, order)
    shifted = (Fraction(0),) * valuation + series.coeffs[: order - valuation]
    return Jet(order, shifted)


def _branch_ends(config: CurveConfig) -> dict:
    """Each branch edge (singularity id, branch index) with its (component,
    singularity) ends."""
    return {
        (s.id, i): (("C", b.component), ("S", s.id))
        for s in config.singularities
        for i, b in enumerate(s.branches)
    }


def _propagate(ends: dict, edges, value) -> dict:
    """One scalar per vertex on the given edges with scalar[C] * scalar[S] equal
    to value(edge) along a breadth-first tree of each connected piece, whose
    first vertex gets 1. An edge off those trees is not looked at."""
    adjacency: dict = {}
    for edge in edges:
        u, v = ends[edge]
        adjacency.setdefault(u, []).append((edge, v))
        adjacency.setdefault(v, []).append((edge, u))
    scalar: dict = {}
    for root in adjacency:
        if root in scalar:
            continue
        scalar[root] = Fraction(1)
        queue = [root]
        for v in queue:  # breadth first; the queue grows while it is read
            for edge, w in adjacency[v]:
                if w not in scalar:
                    scalar[w] = value(edge) / scalar[v]
                    queue.append(w)
    return scalar


def forest_normalized_torus(config: CurveConfig, presentation, values) -> tuple[Fraction, ...]:
    """Torus coordinates of the class with the given branch values, by the
    vertex-scalar solve: one scalar per dual-graph vertex makes every
    spanning-forest edge value 1, and the coordinates are the scaled values at
    the torus-basis edges. A branch missing from ``values`` has value 1.

    Any root works: rescaling a tree's root multiplies the scalars of one side
    of the bipartite tree by a constant and the other side by its inverse,
    which leaves every product scalar[C] * scalar[S] unchanged.
    """
    ends = _branch_ends(config)
    scalar = _propagate(ends, presentation.spanning_forest, lambda e: 1 / Fraction(values.get(e, 1)))
    return tuple(
        values.get(edge, 1) * scalar[ends[edge][0]] * scalar[ends[edge][1]]
        for edge in presentation.torus_basis
    )


def principal(config: CurveConfig, divisor) -> bool:
    """Whether a divisor of degree zero on each line of a genus-0 configuration,
    supported off the branch points, is the divisor of a function on the curve.

    On a line L such a function is lambda_L * g_L, where g_L is the product of
    (t - a)^k over the divisor's finite points on L. It lies in the local ring
    at a singularity S exactly when its jet at every branch of S is one
    constant lambda_S. So every branch jet of g_L must be constant, and
    nonzero scalars with lambda_L * g_L(c) = lambda_S must exist at every
    branch; they are propagated over the dual graph and checked on every edge.
    """
    support: dict = {}
    for component, point, k in divisor.entries:
        if not point.is_infinity:
            support.setdefault(component, []).append((point.value, k))
    weight = {}
    for s in config.singularities:
        for i, b in enumerate(s.branches):
            numerator = denominator = Poly.one()
            for a, k in support.get(b.component, ()):
                if k > 0:
                    numerator = numerator * Poly((-a, 1)) ** k
                elif k < 0:
                    denominator = denominator * Poly((-a, 1)) ** -k
            jet = jet_of_rational_function(numerator, denominator, b.point, b.multiplicity)
            if not jet.is_constant:
                return False
            weight[(s.id, i)] = jet.constant_term
    # with mu_C = 1 / lambda_L and mu_S = lambda_S, each branch asks mu_C * mu_S = g_L(c)
    ends = _branch_ends(config)
    mu = _propagate(ends, ends, weight.__getitem__)
    return all(mu[c] * mu[s] == weight[edge] for edge, (c, s) in ends.items())


def membership_by_cancellation(f: Poly, g: Poly):
    """Decide f in K + (g) by repeatedly cancelling the leading term of
    f - constant against the monic generator product g^(q-1) * (g*t^r) of
    matching degree d = q*e + r."""
    generators = _generators(g)
    e = len(generators)

    remainder = f % g
    if remainder.degree > 0:
        lowest = min(d for d in range(1, e) if remainder.coefficient(d) != 0)
        return NotMember(failing_degree=lowest)
    constant = remainder.coefficient(0)

    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    powers = [Poly.one()]
    current = f - Poly.constant(constant)
    while not current.is_zero:
        d = current.degree
        if d < e:
            # cannot happen for f - constant in (g); guarded for safety
            return NotMember(failing_degree=d)
        q, r = divmod(d, e)
        exponents = [0] * e
        if r == 0:
            exponents[0] = q
        else:
            exponents[0] = q - 1
            exponents[r] += 1
        # g^(q-1) * (g*t^r) is g^q shifted by r: monic of degree d
        while len(powers) <= q:
            powers.append(powers[-1] * g)
        coefficient = current.leading
        terms.append((coefficient, tuple(exponents)))
        current = current - Poly((0,) * r + powers[q].coeffs) * coefficient
        if not current.is_zero and current.degree >= d:
            raise CertificateFailure("membership recursion failed to reduce degree")
    return MembershipCertificate(constant, tuple(terms), generators)


def pairwise_probe(config: CurveConfig, presentation, sample) -> ProbeReport:
    """The injectivity probe by `jac_eq` on every pair of sample points."""
    normalized = [(c, P1Point.of(p)) for c, p in sample]
    classes = [
        aj_eval(config, presentation, component_id, point)
        for component_id, point in normalized
    ]
    collisions = []
    for i in range(len(normalized)):
        for j in range(i + 1, len(normalized)):
            if normalized[i] == normalized[j]:
                continue
            if jac_eq(classes[i], classes[j]):
                collisions.append((normalized[i], normalized[j]))
    return ProbeReport(tuple(normalized), tuple(collisions))
