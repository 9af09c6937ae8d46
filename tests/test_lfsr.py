import random

import pytest

import seqmin
from seqmin.lfsr import (
    annihilates,
    lc_profile,
    minimal_polynomial,
    minimal_realisation,
    mr_gf2_bits,
    mr_gf2_scan,
    mr_init,
    mr_scan,
    mr_step,
    next_identity,
    normalize_monic,
    partial_discrepancy,
    read_step_log,
    run,
    verify_identity,
)
from seqmin.oracle import ext_euclid
from seqmin.poly import PairedPoly, Poly, parse_poly, poly_part
from seqmin.ring import (MAX_CONTENT_BITS, DomainError, GF2, GFp, GFpPolyRing, IntegerRing,
                         Product, domain_from_string, formed)
from seqmin.sequence import SequenceView, bits_from_sequence
from test_step_log import RINGS
from util import random_sequence, seeded, verify_pair_identity

F2 = GF2()
F5 = GFp(5)
Z = IntegerRing()

S8 = SequenceView(F2, [0, 1, 1, 0, 0, 1, 0, 1])
S6 = SequenceView(F2, [1, 0, 1, 1, 0, 1])


def pp(text):
    return parse_poly(F2, text)


def test_annihilates_window():
    assert annihilates(pp("0,1,1,0,1"), S8)
    assert not annihilates(pp("1,1"), S8)
    assert annihilates(Poly.zero(F2), S8)
    assert annihilates(pp("1"), SequenceView(F2, [0, 0, 0]))


def test_init_state():
    st = mr_init(Z, epsilon=1)
    assert st.mu.f.coeffs == (1,) and st.mu.f2.is_zero()
    assert st.mu_prime.f.coeffs == (1,) and st.mu_prime.f2.coeffs == (-1,)
    assert st.e == 1 and st.nabla == 1 and st.delta_prime == 1
    assert st.bez.f.coeffs == (1,)


@pytest.mark.parametrize("ring, epsilon", [
    ("gf2", None), ("gf2", 1), ("gfp:7", None), ("gfp:7", 3),
    ("int", None), ("int", -2), ("gfp_poly:3", None), ("gfp_poly:3", (1, 2)),
])
def test_state_at_n0(ring, epsilon):
    """mr_init and a pass over no terms: mu = (1, 0), mu' = (eps, -1), e = nabla = delta' = 1."""
    dom = domain_from_string(ring)
    one = Poly.one(dom)
    eps = Poly.zero(dom) if epsilon is None else Poly.constant(dom, epsilon)
    for st in (mr_init(dom, epsilon), run(SequenceView(dom, []), epsilon)):
        assert st.mu == PairedPoly(one, Poly.zero(dom))
        assert st.mu_prime == PairedPoly(eps, -one)
        assert st.bez == PairedPoly(one, Poly.zero(dom))
        assert (st.e, st.nabla, st.delta_prime, st.lc) == (1, dom.one, dom.one, 0)
        assert st.j == 0 and st.steps == [] and st.terms == []


def test_worked_example_full_state():
    st = run(S8)
    assert st.mu.f == pp("0,1,1,0,1")
    assert st.mu.f2 == pp("1,1,1")
    assert st.mu_prime.f == pp("1,1,1,1")
    assert st.mu_prime.f2 == pp("0,1")
    assert st.e == 1 and st.nabla == 1
    assert [r.delta for r in st.steps] == [0, 1, 1, 1, 1, 0, 1, 1]
    assert [r.e_before for r in st.steps] == [1, 2, -1, 0, 1, 0, 1, 0]
    assert [r.jumped for r in st.steps] == [
        False, True, False, False, True, False, True, False,
    ]
    assert read_step_log(st).last_jump == 6


def test_minimal_polynomial_examples():
    assert minimal_polynomial(S8) == pp("0,1,1,0,1")
    assert minimal_polynomial(S6) == pp("1,1,1")
    assert minimal_polynomial(SequenceView(F2, [0, 0, 0])) == Poly.one(F2)
    with pytest.raises(ValueError):
        minimal_polynomial(SequenceView(F2, []))


@pytest.mark.parametrize("name, message", [
    *((name, "empty sequence") for name in (
        "minimal_polynomial", "minimal_realisation", "lrs_identity", "is_plcp",
        "is_stable", "plcp_mr_specialized", "reverse_lc", "iy_classify")),
    *((name, "sequence must have a nonzero term") for name in (
        "lc_bullet", "min_nonvanishing", "mr_bullet_family", "extend_by_jump",
        "char_decompose")),
])
def test_entry_points_refuse_an_empty_sequence(name, message):
    # without a guard the engine returns its n = 0 state and the call would
    # answer for the empty sequence
    empty, one = SequenceView(F2, []), Poly.one(F2)
    args = {"mr_bullet_family": (empty, one, 1), "char_decompose": (one, empty)}
    with pytest.raises(ValueError, match=message):
        getattr(seqmin, name)(*args.get(name, (empty,)))


def test_minimal_realisation_table2():
    res = minimal_realisation(S6)
    assert res.mu == PairedPoly(pp("1,1,1"), pp("1,1"))
    assert res.mu_prime == PairedPoly(pp("0,1"), pp("1"))
    assert res.bez_numu == PairedPoly(pp("1"), pp("0,1"))
    assert res.nabla == 1
    assert verify_identity(res.bez_numu, res.mu, res.nabla)
    assert verify_identity(
        res.bez_fg, PairedPoly(res.mu.f, res.mu_prime.f), res.nabla
    )


def test_minimal_realisation_int():
    res = minimal_realisation(SequenceView(Z, [2, 4]))
    assert res.mu.f.coeffs == (-4, 2)
    assert res.nabla == 4
    assert verify_identity(res.bez_numu, res.mu, res.nabla)


def test_bezout_pairs_share_one_negated_mu2_prime():
    """bez_numu = (-mu2', mu') and bez_fg = (-mu2', mu2) hold one -mu2' object,
    read from the engine's records, after a plain pass and after a scan."""
    s = SequenceView(Z, [-5, 4, 3, -3, 5, 4, -4, 3, 5, -5, 3, 4, -3, 5, -4, 4, 3])
    for res in (minimal_realisation(s), list(mr_scan(s))[-1].result()):
        assert res.bez_numu.f is res.bez_fg.f
        assert res.bez_numu.f == -res.mu_prime.f2 and formed(res.bez_numu.f.c) > 1
        assert res.bez_numu.f2 is res.mu_prime.f and res.bez_fg.f2 is res.mu.f2


def test_lc_profiles():
    assert lc_profile(S8) == [0, 2, 2, 2, 3, 3, 4, 4]
    assert lc_profile(S6) == [1, 1, 2, 2, 2, 2]
    assert lc_profile(SequenceView(F2, [0, 0, 0])) == [0, 0, 0]


def test_profile_jump_law():
    rng = seeded(5)
    for _ in range(50):
        s = random_sequence(F5, rng.randint(2, 20), rng)
        profile = lc_profile(s)
        st = run(s)
        for j, rec in enumerate(st.steps, start=1):
            if rec.jumped:
                prev = profile[j - 2] if j >= 2 else 0
                assert profile[j - 1] == j - prev


def test_realisation_window():
    # mu2 is the polynomial part of mu * (s_1/x + ... + s_n/x^n)
    rng = seeded(6)
    for dom in (F2, F5, Z):
        for _ in range(40):
            s = random_sequence(dom, rng.randint(1, 16), rng)
            res = minimal_realisation(s)
            assert res.mu.f2 == poly_part(res.mu.f, s)
            assert annihilates(res.mu.f, s)


def test_identities_random_prefixes():
    rng = seeded(7)
    for dom in (F2, F5, Z):
        for _ in range(30):
            s = random_sequence(dom, rng.randint(1, 24), rng)
            st = mr_init(dom)
            for t in s:
                mr_step(st, t)
                assert verify_pair_identity(st.mu_prime.tilde(), st.mu, st.nabla)
                assert verify_pair_identity(
                    st.bez, PairedPoly(st.mu.f, st.mu_prime.f), st.nabla
                )
                assert not dom.is_zero(st.nabla)
                # constant terms never both vanish
                assert not (
                    dom.is_zero(st.mu.f.constant_term())
                    and dom.is_zero(st.mu_prime.f.constant_term())
                )
                # degree bookkeeping
                assert st.mu.f.degree() == (st.j + 1 - st.e) // 2


def test_successive_minimal_polys_coprime():
    rng = seeded(8)
    for dom in (F2, F5):
        for _ in range(40):
            s = random_sequence(dom, rng.randint(2, 16), rng)
            st = run(s)
            if st.mu_prime.f.is_zero():
                continue
            g, _, _ = ext_euclid(st.mu.f, st.mu_prime.f)
            assert g.degree() == 0


def test_next_identity_jump_steps():
    for s in (S8, S6):
        st = mr_init(s.dom)
        for t in s:
            j_before = st.j
            mu_before = st.mu
            mr_step(st, t)
            rec = st.steps[-1]
            if rec.jumped:
                saved = mr_init(s.dom)
                for u in s.prefix(j_before):
                    mr_step(saved, u)
                coeffs, nabla = next_identity(saved, rec.delta)
                total = coeffs.f * mu_before.f + coeffs.f2 * st.mu.f
                assert total == Poly.constant(s.dom, nabla)
                assert nabla == st.nabla


def test_next_identity_preconditions():
    st = run(S8)  # e = 1 > 0
    with pytest.raises(ValueError):
        next_identity(st, 0)
    st2 = run(S8.prefix(2))  # e = -1
    assert st2.e <= 0
    with pytest.raises(ValueError):
        next_identity(st2, 1)


def test_verify_identity_direct():
    a = PairedPoly(pp("1"), pp("0,1"))
    assert verify_identity(a, PairedPoly(pp("1,1,1"), pp("1,1")), 1)
    assert verify_identity(a, PairedPoly(pp("1,0,1"), pp("0,1")), 1)
    zero = PairedPoly(Poly.zero(F2), Poly.zero(F2))
    assert not verify_identity(zero, a, 1)


def test_normalize_monic():
    rng = seeded(9)
    for _ in range(30):
        s = random_sequence(F5, rng.randint(1, 14), rng)
        res = normalize_monic(minimal_realisation(s))
        assert res.mu.f.is_monic()
        assert verify_identity(res.bez_numu, res.mu, res.nabla)
        assert verify_identity(
            res.bez_fg, PairedPoly(res.mu.f, res.mu_prime.f), res.nabla
        )
    with pytest.raises(DomainError):
        normalize_monic(minimal_realisation(SequenceView(Z, [1, 2])))


def test_epsilon_changes_initial_pair_only():
    st = run(SequenceView(Z, [3]), epsilon=1)
    # jump at step 1: mu = x*1 - 3*eps = x - 3, mu' = old mu
    assert st.mu.f.coeffs == (-3, 1)
    assert st.mu_prime.f.coeffs == (1,)


def test_mr_scan_matches_stepwise():
    states, mus = [], []
    for st in mr_scan(S8):
        states.append(st)
        mus.append(st.mu)
    # one live state, whose immutable mu kept at step j is step j's mu
    assert all(other is st for other in states)
    assert [mu.f.degree() for mu in mus] == lc_profile(S8)
    assert mus == [run(S8.prefix(j)).mu for j in range(1, len(S8) + 1)]
    assert st.mu.f == pp("0,1,1,0,1")


def test_gf2_bit_engine_agrees():
    def unpack(state):
        *polys, e = state
        return [Poly(F2, [(b >> k) & 1 for k in range(b.bit_length())]) for b in polys] + [e]

    def generic(st):
        return [st.mu.f, st.mu.f2, st.mu_prime.f, st.mu_prime.f2, st.e]

    rng = seeded(10)
    for k in range(201):
        n = rng.randint(1, 40) if k else 0
        s = random_sequence(F2, n, rng)
        bits = bits_from_sequence(s)
        # both engines side by side: all five values after every step
        for state, st in zip(mr_gf2_scan(bits, n), mr_scan(s), strict=True):
            assert unpack(state) == generic(st)
        # the last state, or the initial one when n = 0
        assert unpack(mr_gf2_bits(bits, n)) == generic(run(s))


def test_product_realisation_rule():
    # (g*h)_2 = g*h_2 for annihilating h with deg g + deg h <= n
    rng = seeded(11)
    for _ in range(40):
        s = random_sequence(F5, rng.randint(4, 16), rng)
        st = run(s)
        h = st.mu.f
        if h.degree() == 0:
            continue
        room = len(s) - h.degree()
        if room < 1:
            continue
        g = Poly(F5, [rng.randrange(5) for _ in range(room)] + [1])
        gh2 = poly_part(g * h, s)
        assert gh2 == g * poly_part(h, s)


def test_mult_counter_counts_something():
    st = run(S8, count_mults=True)
    assert st.mults > 0
    assert run(SequenceView(F2, [0, 0, 0]), count_mults=True).mults == 0


class MulCounter:
    """Mixin for a Domain subclass whose mul records each call in mul_calls."""

    def mul(self, a, b):
        self.mul_calls.append((a, b))
        return super().mul(a, b)


def counting_domain(ring):
    """`ring` as an instance of a Domain subclass whose mul counts its calls.

    mul_calls is a list, so a shallow copy of the domain adds to it too.
    """
    dom = domain_from_string(ring)
    dom.__class__ = type("Counting", (MulCounter, type(dom)), {})
    dom.mul_calls = []
    return dom


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_mult_count_equals_domain_mul_calls(ring, with_epsilon):
    dom = counting_domain(ring)
    longest, term = RINGS[ring]
    rng = random.Random("%s/%s" % (ring, with_epsilon))
    eps = dom.one if with_epsilon else None
    for _ in range(20):
        s = SequenceView(dom, [term(rng) for _ in range(rng.randint(1, longest))])
        dom.mul_calls.clear()
        st = run(s, eps, count_mults=True)
        assert st.mults == len(dom.mul_calls)
        # a pass without the flag makes the same products
        dom.mul_calls.clear()
        run(s, eps)
        assert len(dom.mul_calls) == st.mults
    dom.mul_calls.clear()
    assert run(SequenceView(dom, [0] * 6), eps, count_mults=True).mults == 0
    assert dom.mul_calls == []


def test_a_pass_coerces_no_term(monkeypatch):
    """A SequenceView's terms are coerced when it is built, so neither `run`
    nor `mr_scan` coerces one again; the public `mr_step` still coerces the
    term it is given, so over GF(7) it reads 9 as 2."""
    calls = []
    for cls in (GFp, IntegerRing, GFpPolyRing):
        real = cls.coerce
        monkeypatch.setattr(cls, "coerce",
                            lambda self, x, real=real: calls.append(x) or real(self, x))
    rng = random.Random("coerce once")
    for ring, (longest, term) in sorted(RINGS.items()):
        dom = domain_from_string(ring)
        s = SequenceView(dom, [term(rng) for _ in range(longest)])
        del calls[:]
        run(s)
        for _ in mr_scan(s):
            pass
        assert calls == [], ring
    st = mr_init(GFp(7))
    mr_step(st, 9)
    assert st.terms == [2] and calls == [9]


def _formed_contents(st):
    """(formed, all): the content nodes reachable from the state and its step log."""
    seen, todo = {}, [st.c, st.c_prime] + [rec.c for rec in st.steps]
    while todo:
        node = todo.pop()
        if type(node) is Product and id(node) not in seen:
            seen[id(node)] = node._value is not None
            todo += (node.a, node.b)
    return sum(seen.values()), len(seen)


@pytest.mark.parametrize("n", [200, 400])
def test_integers_at_scale_form_no_content(n):
    """Seeded integer inputs of 200 and 400 terms, where c and c' run to
    astronomically many bits: the pass carries the primitive parts and rho,
    mu^ annihilates the sequence with degree LC, the identity on the
    primitive parts holds, and no content node is formed, also when reading
    nabla stops at the content limit."""
    rng = random.Random("int at scale/%d" % n)
    s = SequenceView(Z, [rng.choice((-5, -4, -3, 3, 4, 5)) for _ in range(n)])
    st = run(s)
    a, mu_hat, rho = st.primitive()
    assert verify_identity(a, mu_hat, rho)
    assert not verify_identity(a, mu_hat, rho + 1)
    assert annihilates(mu_hat.f, s) and mu_hat.f.degree() == st.lc == lc_profile(s)[-1]
    formed, nodes = _formed_contents(st)
    assert formed == 0 and nodes > n // 2
    assert st.c.bits > MAX_CONTENT_BITS
    with pytest.raises(DomainError, match="MAX_CONTENT_BITS"):
        st.nabla
    assert _formed_contents(st) == (0, nodes)


def test_minimal_polynomial_forms_no_nabla():
    """A 36-term integer input whose c (15.8 M bits) is within
    ring.MAX_CONTENT_BITS while nabla's bound (22.4 M bits) is past it:
    minimal_polynomial reads mu off the pass and returns, though nabla,
    and so minimal_realisation, is refused."""
    s = SequenceView(Z, [4, -5, 3, -4, 5, 3, 3, 5, -4, -3, 4, 5, 5, 5, -3, -5, 3, 5,
                         4, -5, -4, 4, 3, -3, 3, 5, -5, 3, -5, -3, 5, 4, 4, 4, 3, 5])
    f = minimal_polynomial(s)
    st = run(s)
    assert annihilates(f.base, s) and f.base.degree() == st.lc == 18
    assert f.c.bits <= MAX_CONTENT_BITS
    with pytest.raises(DomainError, match="MAX_CONTENT_BITS"):
        st.nabla


def test_partial_discrepancy_reads_the_primitive_lists(monkeypatch):
    """On a 200-term integer state, whose contents are far past the limit,
    the partial discrepancy is the dot of mu^'s lower coefficients with the
    last LC terms and forms no content; with lead(mu^) * s_{n+1} added it
    is the next step's delta^."""
    rng = random.Random("partial discrepancy over Z")
    s = SequenceView(Z, [rng.choice((-5, -4, -3, 3, 4, 5)) for _ in range(200)])
    st = run(s)

    def refuse(node):
        raise AssertionError("a content was formed")

    monkeypatch.setattr(Product, "value", refuse)
    mu_hat, lc = st.primitive()[1].f, st.lc
    partial = partial_discrepancy(st)
    assert partial == sum(a * b for a, b in zip(mu_hat.coeffs[:-1], s.terms[200 - lc:]))
    mr_step(st, 3)
    assert st.steps[-1].delta_hat == partial + 3 * mu_hat.lead()
