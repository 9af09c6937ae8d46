"""The iterative minimal polynomial / minimal realisation engine.

One pass over s_1..s_n maintains, division-free:

  * mu      -- a minimal polynomial of the prefix, with the polynomial part
               mu2 of mu * (s_1 x^-1 + ...) alongside (a minimal realisation)
  * mu'     -- the prejump pair (the realisation held just before the last
               degree jump)
  * e       -- the exponent n + 1 - 2*deg(mu), the loop's degree bookkeeping
  * nabla   -- the running product of discrepancies, never zero

and a per-step log of (discrepancy, exponent before the step, jumped).
The pair tilde(mu') = (-mu2', mu') satisfies tilde(mu') . (mu, mu2) = nabla,
and bez = (-mu2', mu2) satisfies bez . (mu, mu') = nabla, so both Bezout
pairs of the realisation come out of the same pass with no work of their
own.  `mr_scan` lets a caller watch that one pass: it yields the live state
after every step, which is also where the result is read from at the end.

What a step carries is the primitive part of all this: mu = c * mu^ and
mu' = c' * mu^', each a content times a bare coefficient list that holds
the pair's two polynomials interleaved (`MRState`), the discrepancy
delta^' of mu^ at the last jump, and rho = nabla / (c * c').  On a nonzero
step with discrepancy delta^ of mu^, the one update for both branches is
delta^' x^up mu^ - delta^ x^down mu^', whose content g is split off
(`Domain.split_content`); then rho <- x * rho / g, with x = delta^ at a
jump and delta^' otherwise, and the new content is c * c' * g.  Dividing
by g is exact (tilde(mu^') . (mu^, mu2^) = rho on the primitive parts, so
g divides x * rho), and x * rho is split together with the list, so the
quotient comes out of the same gcd.

Nothing else is carried.  Over the integers the contents grow doubly
exponentially while mu^ and rho stay small, so c and c' are `ring.Product`
nodes, c <- Product(c, c', g), made in O(1), each formed at most once, and
only when read.  Everything else is read off the state and built on each
read: the views `MRState.mu` and `mu_prime` (`poly.ScaledPoly`, which
records its content, so `verify_identity` takes c * c' from the records),
nabla = c * c' * rho, Delta' = c' * delta^' and each step log's Delta =
c * delta^.  A content or nabla past `ring.MAX_CONTENT_BITS` is refused
with a DomainError, and `MRState.primitive` gives the identity on the
primitive parts, which forms no content at any length.  Over a field and
GF(p)[y] every g, c and c' is one, rho is nabla, and mu is mu^ itself.

Each step costs one discrepancy, the `Domain.dot` of mu^ with the last
LC + 1 terms, one update (`Domain.axpy`) of the interleaved list, one
product x * rho and one `Domain.split_content`, all on the list with no
Poly built.  `dot` and `axpy` are the domain's two scalar kernels: the
generic loops over GF(2) and GF(p), loops on plain ints over the
integers, one packed sum each over GF(p)[y], where the update is the list
kernel `Domain.inner` of the shifted scalars and the factors.
`mr_gf2_scan` is the same recursion on bit-packed GF(2) ints;
`mr_gf2_bits`, `plcp.plcp_bits` and `plcp`'s sigma check read it.
"""

from __future__ import annotations

import copy
from collections import namedtuple

from .poly import PairedPoly, Poly, ScaledPoly, add_scaled
from .ring import Domain, DomainError, Product, check_same_domain, formed
from .sequence import SequenceView

StepLog = namedtuple("StepLog", ["exponents", "profile", "last_jump"])

MRResult = namedtuple(
    "MRResult", ["mu", "mu_prime", "bez_numu", "bez_fg", "nabla", "state"]
)


class StepRecord(namedtuple("StepRecord", "delta_hat e_before jumped c", defaults=(None,))):
    """One step's log: the discrepancy, the exponent before the step, whether mu jumped.

    Carried: delta_hat and c, the content mu held before the step, or None
    when it is one (always over a field and GF(p)[y]).  Read: the
    discrepancy Delta = c * delta_hat, formed on each read.
    """

    __slots__ = ()

    @property
    def delta(self):
        return self.delta_hat if self.c is None else formed(self.c) * self.delta_hat


def annihilates(f: Poly, s: SequenceView) -> bool:
    """Window check: f_0 s_{j-d} + ... + f_d s_j = 0 for d+1 <= j <= n.

    The zero polynomial annihilates everything by convention.
    """
    if f.is_zero():
        return True
    check_same_domain(f.dom, s.dom)
    dom = f.dom
    d = f.degree()
    return all(dom.is_zero(dom.dot(f.coeffs, s.terms[j - d - 1:j]))
               for j in range(d + 1, len(s) + 1))


class MRState:
    """Mutable engine state; one instance per sequence being consumed.

    Carried, and written by `mr_step` alone: the step count j, the exponent
    e, the factors of mu = c * mu_hat and mu' = c_prime * mu_hat_prime, the
    primitive discrepancy delta_hat_prime of the last jump, rho = nabla /
    (c * c'), and the logs of steps and terms.  A factor pair is one bare
    list with its two polynomials interleaved, mu^_0, mu2^_0, mu^_1,
    mu2^_1, ..., trimmed: x^k times the pair is that list shifted by 2k, so
    one `Domain.axpy` updates both, and deg mu2 < deg mu puts lead(mu^)
    last.  At a jump mu_hat' takes over mu_hat's list itself and c' takes
    over c; no list is written once formed.

    Read, and built on each read, so a caller that needs one twice takes it
    once: LC, LC-bullet, the views `mu` and `mu_prime` (PairedPolys of the
    products, Polys of the factor's lists while its content is one, always
    over a field or GF(p)[y]), `bez` = (-mu2', mu2), nabla = c * c' * rho
    and Delta' = c' * delta_hat'.
    """

    __slots__ = ("dom", "j", "e", "c", "mu_hat", "c_prime", "mu_hat_prime",
                 "delta_hat_prime", "rho", "steps", "terms", "mults")

    def __init__(self, dom: Domain, epsilon=None):
        epsilon = dom.zero if epsilon is None else dom.coerce(epsilon)
        self.dom = dom
        self.j, self.e, self.mults = 0, 1, 0
        self.c = self.c_prime = self.delta_hat_prime = self.rho = dom.one
        self.mu_hat = [dom.one]  # (1, 0)
        self.mu_hat_prime = [epsilon, dom.neg(dom.one)]  # (eps, -1)
        self.steps, self.terms = [], []

    @property
    def lc(self) -> int:
        return (len(self.mu_hat) - 1) // 2

    @property
    def lc_bullet(self) -> int:
        """Least degree of an annihilator with nonzero constant term (the
        lower-bound lemma): LC, or j + 1 - LC when e > 0 and mu_0 = 0, which
        mu^_0 decides since c != 0, so no content is formed."""
        if self.e > 0 and self.dom.is_zero(self.mu_hat[0]):
            return self.j + 1 - self.lc
        return self.lc

    @property
    def mu(self) -> PairedPoly:
        """The realisation (mu, mu2) = c * mu_hat."""
        return _scaled(self.dom, self.c, self.mu_hat)

    @property
    def mu_prime(self) -> PairedPoly:
        """The prejump pair (mu', mu2') = c_prime * mu_hat_prime."""
        return _scaled(self.dom, self.c_prime, self.mu_hat_prime)

    @property
    def nabla(self):
        """c * c' * rho, the running product of discrepancies."""
        c, c_prime, one = self.c, self.c_prime, self.dom.one
        if c is one and c_prime is one:
            return self.rho
        return Product(c, c_prime, self.rho).value()

    @property
    def delta_prime(self):
        """Delta' = c' * delta_hat', the last jump's Delta (one before any jump)."""
        c_prime = self.c_prime  # at a jump c' takes over c, mu's content before it
        return (self.delta_hat_prime if c_prime is self.dom.one
                else formed(c_prime) * self.delta_hat_prime)

    @property
    def bez(self) -> PairedPoly:
        """(-mu2', mu2), the coefficients with bez . (mu, mu') = nabla."""
        return PairedPoly(-self.mu_prime.f2, self.mu.f2)

    def result(self) -> MRResult:
        """The realisation, prejump pair and both Bezout pairs held now."""
        mu, mu_prime = self.mu, self.mu_prime
        neg = -mu_prime.f2  # tilde(mu') = (-mu2', mu') and bez = (-mu2', mu2) share it
        return MRResult(
            mu=mu,
            mu_prime=mu_prime,
            bez_numu=PairedPoly(neg, mu_prime.f),
            bez_fg=PairedPoly(neg, mu.f2),
            nabla=self.nabla,
            state=self,
        )

    def primitive(self):
        """(tilde(mu^'), mu^, rho): the realisation's identity with c * c' divided out.

        tilde(mu') . (mu, mu2) = nabla is c * c' times tilde(mu^') . (mu^,
        mu2^) = rho, so `verify_identity(*st.primitive())` checks it on the
        lists the pass carries and forms no content, at any length.
        """
        (f, f2), (g, g2) = _pair(self.dom, self.mu_hat), _pair(self.dom, self.mu_hat_prime)
        return PairedPoly(-g2, g), PairedPoly(f, f2), self.rho


def mr_init(dom: Domain, epsilon=None) -> MRState:
    """Initial state: mu' = (eps, -1), delta' = 1, e = 1, mu = (1, 0), nabla = 1."""
    return MRState(dom, epsilon)


def mr_step(st: MRState, s_next, _canonical=False) -> MRState:
    """Consume one term: update mu^, mu^', their contents and rho in place.

    The term is coerced into the domain unless _canonical says it already
    is, as a SequenceView's terms are (`run`, `mr_scan`).
    """
    dom = st.dom
    if not _canonical:
        s_next = dom.coerce(s_next)
    st.terms.append(s_next)
    j = st.j + 1
    e = e_before = st.e

    # delta_hat = sum_{k=0}^{LC} mu_hat_k s_{k+(j+e)/2} with LC = (j-e)/2:
    # mu_hat against the last LC + 1 terms
    delta_hat = dom.dot(st.mu_hat[0::2], st.terms[(j + e) // 2 - 1:])

    one = dom.one
    if dom.is_zero(delta_hat):
        rec = StepRecord(delta_hat, e_before, False)
    else:
        # one update for both branches: Delta' x^up mu - Delta x^down mu'
        # with up = max(e, 0) and down = max(-e, 0), which is
        # c c' (delta_hat' x^up mu_hat - delta_hat x^down mu_hat'), a shift
        # by 2 up and 2 down of the interleaved lists; the content g of the
        # new list and x * rho moves into c
        up, down = (2 * e, 0) if e > 0 else (0, -2 * e)
        a = st.delta_hat_prime
        new = dom.axpy(a, up, st.mu_hat, dom.neg(delta_hat), down, st.mu_hat_prime)
        jumped = e > 0
        new.append(dom.mul(delta_hat if jumped else a, st.rho))
        g, new = dom.split_content(new)
        st.rho = new.pop()
        c, c_prime = st.c, st.c_prime
        rec = StepRecord(delta_hat, e_before, jumped, None if c is one else c)
        if jumped:
            st.c_prime, st.mu_hat_prime, st.delta_hat_prime = c, st.mu_hat, delta_hat
            e = -e
        if c is one and c_prime is one:  # always over a field and GF(p)[y]
            st.c = one if g == one else g
        else:
            st.c = Product(c, c_prime, g)
        st.mu_hat = new
    st.e = e + 1
    st.j = j
    st.steps.append(rec)
    return st


def _mul(dom: Domain, a, b):
    """a * b, with no product when a factor is one (as every content is over a field)."""
    if a == dom.one:
        return b
    if b == dom.one:
        return a
    return dom.mul(a, b)


def _pair(dom: Domain, cs):
    """The two Polys interleaved in one of the engine's lists, each trimmed."""
    out = []
    for fs in (cs[0::2], cs[1::2]):
        while fs and dom.is_zero(fs[-1]):
            fs.pop()
        out.append(Poly(dom, fs, _canonical=True))
    return out


def _scaled(dom: Domain, c, cs) -> PairedPoly:
    """c times the interleaved pair cs, each Poly recording (c, its factor) unless c is one."""
    f, f2 = _pair(dom, cs)
    if c == dom.one:
        return PairedPoly(f, f2)
    return PairedPoly(ScaledPoly(c, f), ScaledPoly(c, f2))


def partial_discrepancy(st: MRState):
    """The next discrepancy over c minus lead(mu^) * s_{j+1}: mu^_k s_{k+j+1-LC}, k < LC."""
    lc = st.lc
    return st.dom.dot(st.mu_hat[0:2 * lc:2], st.terms[st.j - lc:])


def run(s: SequenceView, epsilon=None, count_mults: bool = False) -> MRState:
    """Fold the engine over a whole sequence.

    With count_mults the pass runs over a copy of the domain whose mul
    counts its calls, and st.mults is that count.  Over GF(2) and GF(p) it is
    every product of the pass.  The integers' discrepancies and updates are
    loops on plain ints (`IntegerRing.dot`, `IntegerRing.axpy`), not `mul`
    calls, so there the count is the content and nabla products alone;
    splitting off a content takes one gcd and exact divisions, which are
    not counted either.  Over GF(p)[y] the discrepancies and updates are
    packed sums (`GFpPolyRing.dot`, and `GFpPolyRing.axpy` through the list
    kernel `GFpPolyRing.inner`), so there the count is the nabla products
    alone.
    """
    dom, calls = s.dom, 0
    if count_mults:
        dom, mul = copy.copy(dom), dom.mul

        def counted(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)

        dom.mul = counted
    st = mr_init(dom, epsilon)
    for t in s:
        mr_step(st, t, True)
    if count_mults:
        st.mults = calls
        del dom.mul  # the state's polynomials keep the copy, which no longer counts
    return st


def mr_scan(s: SequenceView, epsilon=None):
    """The engine's own state after each step j = 1..n, as one pass runs.

    Yields the same MRState every time, updated in place by the next step,
    so read what a step needs before asking for the next one.  Its values
    are replaced, never changed: the views are immutable PairedPolys and
    the coefficient lists of mu^ and mu^' are never written once formed, so
    a st.mu kept at step j still holds step j's value;
    st.steps[-1] is step j's record (the lists st.steps and st.terms keep
    growing).
    """
    st = mr_init(s.dom, epsilon)
    for t in s:
        yield mr_step(st, t, True)


def minimal_polynomial(s: SequenceView, epsilon=None) -> Poly:
    """A minimal polynomial of s (not normalized monic); forms no nabla."""
    if len(s) < 1:
        raise ValueError("empty sequence")
    return run(s, epsilon).mu.f


def minimal_realisation(s: SequenceView, epsilon=None) -> MRResult:
    """One pass: realisation, prejump pair, and both Bezout coefficient pairs.

    bez_numu = tilde(mu') pairs with (mu, mu2); bez_fg pairs with (mu, mu').
    Both inner products equal nabla exactly.
    """
    if len(s) < 1:
        raise ValueError("empty sequence")
    return run(s, epsilon).result()


def read_step_log(st: MRState) -> StepLog:
    """Exponents e_j, profile LC_j = (j + 1 - e_j) / 2 (Massey 1969) and j'.

    Read from the step log of the pass just run; j' (last_jump) is the step
    before the last degree jump, or -1 when mu never jumped.
    """
    exponents, profile, last_jump = [], [], -1
    for j, rec in enumerate(st.steps, start=1):
        e = (-rec.e_before if rec.jumped else rec.e_before) + 1
        exponents.append(e)
        profile.append((j + 1 - e) // 2)
        if rec.jumped:
            last_jump = j - 1
    return StepLog(exponents, profile, last_jump)


def lc_profile(s: SequenceView, epsilon=None):
    """LC_1..LC_n (degrees of prefix minimal polynomials), non-decreasing."""
    return read_step_log(run(s, epsilon)).profile


def next_identity(st_before: MRState, delta):
    """Coefficients for (mu^(n-1), mu^(n)) at a jump step.

    Requires e_{n-1} > 0 and delta != 0; returns (coeffs, nabla_n) with
    coeffs . (mu^(n-1), mu^(n)) = nabla_n.
    """
    dom = st_before.dom
    delta = dom.coerce(delta)
    e = st_before.e
    if e <= 0:
        raise ValueError("identity requires a positive exponent before the step")
    if dom.is_zero(delta):
        raise ValueError("identity requires a nonzero discrepancy")
    # the jump update Delta' x^e bez_2 + Delta bez_1 of bez = (-mu2', mu2),
    # which pairs with (mu^(n), mu^(n-1))
    bez = st_before.bez
    first = add_scaled(st_before.delta_prime, e, bez.f2, delta, 0, bez.f)
    return PairedPoly(first, -bez.f2), dom.mul(delta, st_before.nabla)


def verify_identity(a: PairedPoly, b: PairedPoly, expected) -> bool:
    """True iff a.f*b.f + a.f2*b.f2 equals the constant `expected`, exactly.

    The contents come out first, here and nowhere else.  When every factor
    records its content (the engine's views over the integers,
    `poly.ScaledPoly`) and both products have the same two contents
    {c, c'}, the sum is M = c * c' times the same sum over the recorded
    factors.  Otherwise each factor of a pair of nonzero factors is split
    once (`Domain.split_content`), f = c_f * f^, so the sum is
    sum m * f^ * g^ with m = c_f * c_g, and M is the common content of the
    m; each f^ is scaled by m / M.  M divides the sum, so `expected` must
    be divisible by M.  Contents other than one arise over the integers
    alone, where they carry nearly all of a factor's size.

    The pairs of nonzero factors left are expanded once, by the domain's
    list kernel `Domain.inner`, and the sum must read expected / M, 0, 0,
    ... coefficient by coefficient.  Every identity check of the library
    runs through here.
    """
    check_same_domain(a.dom, b.dom)
    dom = a.dom
    expected = dom.coerce(expected)
    recorded = _recorded_contents(a, b)
    if recorded is not None:
        M, pairs = recorded
    else:
        split = []
        for fs, gs in ((a.f.coeffs, b.f.coeffs), (a.f2.coeffs, b.f2.coeffs)):
            if fs and gs:
                cf, fs = dom.split_content(fs)
                cg, gs = dom.split_content(gs)
                split.append((_mul(dom, cf, cg), fs, gs))
        M, ms = dom.split_content([m for m, _, _ in split])
        pairs = [(fs if m == dom.one else [dom.mul(m, x) for x in fs], gs)
                 for m, (_, fs, gs) in zip(ms, split)]
    if M != dom.one:
        expected, r = divmod(expected, M)
        if r:
            return False
    pairs = [(fs, gs) for fs, gs in pairs if fs and gs]
    if not pairs:
        return dom.is_zero(expected)
    total = dom.inner(pairs)
    return total == [expected] + [dom.zero] * (len(total) - 1)


def _recorded_contents(a: PairedPoly, b: PairedPoly):
    """(c * c', the bases' coefficient pairs) when both products have contents {c, c'}.

    Every factor must be a `ScaledPoly`; contents other than one arise over
    the integers alone.  The records are compared as they are held (the
    engine's are `ring.Product` nodes, equal when they are one node), and
    only c and c' are formed.  None otherwise.
    """
    try:
        (c1, f1), (d1, g1) = (a.f.c, a.f.base), (b.f.c, b.f.base)
        (c2, f2), (d2, g2) = (a.f2.c, a.f2.base), (b.f2.c, b.f2.base)
    except AttributeError:
        return None
    if not ((c1 == c2 and d1 == d2) or (c1 == d2 and d1 == c2)):
        return None
    return formed(c1) * formed(d1), ((f1.coeffs, g1.coeffs), (f2.coeffs, g2.coeffs))


def normalize_monic(result: MRResult) -> MRResult:
    """Rescale the realisation monic (fields only), keeping identities exact.

    mu-bar and nabla divide by lead(mu); bez_numu still pairs with the monic
    realisation, and bez_fg's second component rescales to keep the
    (mu, mu') identity at the rescaled nabla.
    """
    dom = result.mu.dom
    if not dom.is_field:
        raise DomainError("monic normalization requires a field")
    c = dom.inv(result.mu.f.lead())
    return result._replace(
        mu=result.mu.scale(c),
        bez_fg=PairedPoly(result.bez_fg.f, result.bez_fg.f2.scale(c)),
        nabla=dom.mul(c, result.nabla),
    )


# -- bit-packed GF(2) fast path ---------------------------------------


def mr_gf2_scan(seq_bits: int, n: int):
    """The GF(2) engine on bit-packed ints (epsilon = 0), one step at a time.

    seq_bits holds s_i at bit i-1; polynomials are ints with x^k at bit k.
    Yields (mu, mu2, mu', mu2', e) after each step j = 1..n, with the same
    semantics as the generic engine's state; over GF(2) every nonzero
    scalar is 1, so nabla = 1 throughout.  Tested step by step against
    `mr_scan`.
    """
    mu, mu2 = 1, 0
    mup, mup2 = 0, 1
    e = 1
    for j in range(1, n + 1):
        shift = (j + e) // 2 - 1
        if (mu & (seq_bits >> shift)).bit_count() & 1:
            if e <= 0:
                mu ^= mup << -e
                mu2 ^= mup2 << -e
            else:
                mu, mup = (mu << e) ^ mup, mu
                mu2, mup2 = (mu2 << e) ^ mup2, mu2
                e = -e
        e += 1
        yield mu, mu2, mup, mup2, e


def mr_gf2_bits(seq_bits: int, n: int):
    """(mu, mu2, mu', mu2', e) after the whole GF(2) pass over s_1..s_n."""
    state = (1, 0, 0, 1, 1)
    for state in mr_gf2_scan(seq_bits, n):
        pass
    return state
