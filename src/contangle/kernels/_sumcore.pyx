# cython: language_level=3
"""MPFR/GMP implementation of the alternating-sum kernels.

Mirrors :mod:`contangle.kernels.pure`, including the calling convention
``(value, mantissa, exp2, max_exp2, any_term)``.  The residual pass is the
same fixed-point integer pass, in GMP integers with the same floor
divisions, floor square roots and round-half-up shifts.  Its one logarithm
per term is ``mpfr_log`` at ``width + 8`` bits, rounded half up to
``width`` bits, where the pure pass uses its shift-and-add logarithm.  The
rounded ``mpfr_log`` errs by less than 0.51 units of ``2**-width``, inside
the 0.67 that the pure module's error argument allows the logarithm, so
it meets the same per-term bound; the two agree except where the
logarithm lies within 0.17 units of a rounding midpoint.  The comparison
pass carries its binomial coefficients
as exact GMP integers; everything else is correctly rounded MPFR
arithmetic at the requested working precision.
"""

cdef extern from "gmp.h":
    ctypedef struct __mpz_struct:
        pass
    ctypedef __mpz_struct mpz_t[1]
    ctypedef unsigned long mp_bitcnt_t
    void mpz_init(mpz_t x)
    void mpz_init_set_ui(mpz_t rop, unsigned long op)
    void mpz_clear(mpz_t x)
    void mpz_set_ui(mpz_t rop, unsigned long op)
    void mpz_add(mpz_t rop, mpz_t op1, mpz_t op2)
    void mpz_sub(mpz_t rop, mpz_t op1, mpz_t op2)
    void mpz_add_ui(mpz_t rop, mpz_t op1, unsigned long op2)
    void mpz_mul(mpz_t rop, mpz_t op1, mpz_t op2)
    void mpz_mul_ui(mpz_t rop, mpz_t op1, unsigned long op2)
    void mpz_mul_2exp(mpz_t rop, mpz_t op1, mp_bitcnt_t op2)
    void mpz_fdiv_q(mpz_t q, mpz_t n, mpz_t d)
    void mpz_fdiv_q_2exp(mpz_t q, mpz_t n, mp_bitcnt_t b)
    void mpz_divexact_ui(mpz_t q, mpz_t n, unsigned long d)
    void mpz_sqrt(mpz_t rop, mpz_t op)
    void mpz_bin_uiui(mpz_t rop, unsigned long n, unsigned long k)
    size_t mpz_sizeinbase(mpz_t op, int base)
    int mpz_sgn(mpz_t op)

cdef extern from "mpfr.h":
    ctypedef struct __mpfr_struct:
        pass
    ctypedef __mpfr_struct mpfr_t[1]
    ctypedef long mpfr_prec_t
    ctypedef long mpfr_exp_t
    ctypedef enum mpfr_rnd_t:
        MPFR_RNDN
    void mpfr_init2(mpfr_t x, mpfr_prec_t prec)
    void mpfr_set_prec(mpfr_t x, mpfr_prec_t prec)
    void mpfr_clear(mpfr_t x)
    int mpfr_set_d(mpfr_t rop, double op, mpfr_rnd_t rnd)
    int mpfr_set_ui(mpfr_t rop, unsigned long op, mpfr_rnd_t rnd)
    int mpfr_set_z_2exp(mpfr_t rop, mpz_t op, mpfr_exp_t e, mpfr_rnd_t rnd)
    mpfr_exp_t mpfr_get_z_2exp(mpz_t rop, mpfr_t op)
    int mpfr_add(mpfr_t rop, mpfr_t op1, mpfr_t op2, mpfr_rnd_t rnd)
    int mpfr_sub(mpfr_t rop, mpfr_t op1, mpfr_t op2, mpfr_rnd_t rnd)
    int mpfr_mul(mpfr_t rop, mpfr_t op1, mpfr_t op2, mpfr_rnd_t rnd)
    int mpfr_mul_ui(mpfr_t rop, mpfr_t op1, unsigned long op2, mpfr_rnd_t rnd)
    int mpfr_mul_2ui(mpfr_t rop, mpfr_t op1, unsigned long op2, mpfr_rnd_t rnd)
    int mpfr_div_ui(mpfr_t rop, mpfr_t op1, unsigned long op2, mpfr_rnd_t rnd)
    int mpfr_ui_div(mpfr_t rop, unsigned long op1, mpfr_t op2, mpfr_rnd_t rnd)
    int mpfr_ui_pow(mpfr_t rop, unsigned long op1, mpfr_t op2, mpfr_rnd_t rnd)
    int mpfr_mul_z(mpfr_t rop, mpfr_t op1, mpz_t op2, mpfr_rnd_t rnd)
    int mpfr_sqr(mpfr_t rop, mpfr_t op, mpfr_rnd_t rnd)
    int mpfr_sqrt_ui(mpfr_t rop, unsigned long op, mpfr_rnd_t rnd)
    int mpfr_exp(mpfr_t rop, mpfr_t op, mpfr_rnd_t rnd)
    int mpfr_log(mpfr_t rop, mpfr_t op, mpfr_rnd_t rnd)
    int mpfr_sinh(mpfr_t rop, mpfr_t op, mpfr_rnd_t rnd)
    int mpfr_asinh(mpfr_t rop, mpfr_t op, mpfr_rnd_t rnd)
    double mpfr_get_d(mpfr_t op, mpfr_rnd_t rnd)
    double mpfr_get_d_2exp(long *exp, mpfr_t op, mpfr_rnd_t rnd)
    mpfr_exp_t mpfr_get_exp(mpfr_t x)
    int mpfr_zero_p(mpfr_t op)

#: bits per term beyond its binomial weight, as in the pure backend
cdef long GUARD = 4
cdef double LN2 = 0.6931471805599453


cdef long bit_length(mpz_t x):
    return 0 if mpz_sgn(x) == 0 else <long>mpz_sizeinbase(x, 2)


cdef void fixed(mpz_t rop, mpfr_t x, long bits):
    """``x >= 0`` times ``2**bits``, rounded half up to an integer."""
    cdef long shift
    if mpfr_zero_p(x):
        mpz_set_ui(rop, 0)
        return
    shift = mpfr_get_z_2exp(rop, x) + bits
    if shift >= 0:
        mpz_mul_2exp(rop, rop, shift)
    elif bit_length(rop) + shift < 0:
        mpz_set_ui(rop, 0)
    else:
        mpz_fdiv_q_2exp(rop, rop, -shift - 1)
        mpz_add_ui(rop, rop, 1)
        mpz_fdiv_q_2exp(rop, rop, 1)


def eval_residual(long n_kept, long n_traced, double r_bar, long prec, *, long top_exp2):
    """One pass of the alternating binomial contangle sum at ``prec`` bits,
    summed exactly in units of ``2**(top_exp2 - prec)``."""
    if n_kept < 2 or n_traced < 0 or prec < 2:
        raise ValueError("invalid kernel arguments")
    if r_bar == 0.0:
        return (0.0, 0.0, 0, 0, False)
    cdef long n = n_kept, m = n_traced
    cdef long j, frac, hi, width, bits, shift, exp2, max_exp2, observed = 0
    cdef double value, mantissa
    cdef mpz_t d, e_sq, den, w, y, t, binom, term, total
    cdef mpfr_t x, s, f

    frac = prec - top_exp2
    mpz_init(d)
    mpz_init(e_sq)
    mpz_init(den)
    mpz_init(w)
    mpz_init(y)
    mpz_init(t)
    mpz_init(binom)
    mpz_init(term)
    mpz_init(total)
    mpfr_init2(x, 53)
    mpfr_init2(s, 53)
    mpfr_init2(f, 53)
    try:
        mpz_set_ui(t, n)
        mpz_bin_uiui(binom, n - 1, (n - 1) // 2)
        hi = frac + bit_length(binom) + GUARD + bit_length(t)  # bits of d
        if hi > 0 and 4.0 * r_bar <= (hi + 2) * LN2:
            mpfr_set_d(x, -4.0 * r_bar, MPFR_RNDN)
            mpfr_set_prec(f, hi + 8)
            mpfr_exp(f, x, MPFR_RNDN)
            fixed(d, f, hi)
        else:  # d < 2**-(hi + 2) rounds to zero
            mpz_set_ui(d, 0)
        mpz_set_ui(e_sq, 1)
        mpz_mul_2exp(e_sq, e_sq, hi if hi > 0 else 0)
        mpz_sub(e_sq, e_sq, d)
        mpz_mul(e_sq, e_sq, e_sq)
        mpz_set_ui(binom, 1)
        for j in range(n - 1):
            width = frac + bit_length(binom) + GUARD
            if j + m == 0:
                bits = prec + 8
                mpfr_set_d(x, r_bar, MPFR_RNDN)
                mpfr_mul_2ui(x, x, 1, MPFR_RNDN)
                mpfr_set_prec(f, bits)
                mpfr_sinh(f, x, MPFR_RNDN)
                mpfr_mul_2ui(f, f, 1, MPFR_RNDN)
                mpfr_set_prec(s, bits)
                mpfr_sqrt_ui(s, n - 1, MPFR_RNDN)
                mpfr_mul(f, f, s, MPFR_RNDN)
                mpfr_div_ui(f, f, n, MPFR_RNDN)
                mpfr_asinh(f, f, MPFR_RNDN)
                mpfr_sqr(f, f, MPFR_RNDN)
                fixed(term, f, frac)
            elif width > 0:
            # floor(w_j 2**width), from d at hi bits
                mpz_set_ui(den, j + m)
                mpz_mul_2exp(den, den, hi)
                mpz_mul_ui(t, d, n - j)
                mpz_add(den, den, t)
                mpz_mul_ui(den, den, n + m)
                mpz_mul_2exp(den, den, hi - width)
                mpz_mul_ui(w, e_sq, n - 1 - j)
                mpz_fdiv_q(w, w, den)
                # y = 2**width + 2 w + 2 isqrt(w (2**width + w))
                mpz_set_ui(y, 1)
                mpz_mul_2exp(y, y, width)
                mpz_add(t, y, w)
                mpz_mul(t, t, w)
                mpz_sqrt(t, t)
                mpz_add(t, t, w)
                mpz_mul_2exp(t, t, 1)
                mpz_add(y, y, t)
                mpfr_set_prec(x, bit_length(y))
                mpfr_set_z_2exp(x, y, -width, MPFR_RNDN)
                # mpfr_log, not pure's shift and add: it meets the same
                # per-term bound (see the module docstring)
                mpfr_set_prec(f, width + 8)
                mpfr_log(f, x, MPFR_RNDN)
                fixed(t, f, width)
                mpz_mul(term, t, t)
                mpz_mul(term, term, binom)
                shift = 2 * width + 2 - frac
                mpz_fdiv_q_2exp(term, term, shift - 1)
                mpz_add_ui(term, term, 1)
                mpz_fdiv_q_2exp(term, term, 1)
                mpfr_set_prec(x, 53)
            else:  # below 2**-GUARD units
                mpz_set_ui(term, 0)
            if mpz_sgn(term) and bit_length(term) > observed:
                observed = bit_length(term)
            if j % 2 == 0:
                mpz_add(total, total, term)
            else:
                mpz_sub(total, total, term)
            mpz_mul_ui(binom, binom, n - 1 - j)
            mpz_divexact_ui(binom, binom, j + 1)
        max_exp2 = top_exp2
        if observed and observed - frac > max_exp2:
            max_exp2 = observed - frac
        if mpz_sgn(total) == 0:
            return (0.0, 0.0, 0, max_exp2, True)
        mpfr_set_prec(x, 53)
        mpfr_set_z_2exp(x, total, -frac, MPFR_RNDN)
        value = mpfr_get_d(x, MPFR_RNDN)
        mantissa = mpfr_get_d_2exp(&exp2, x, MPFR_RNDN)
        return (value, mantissa, exp2, max_exp2, True)
    finally:
        mpz_clear(d)
        mpz_clear(e_sq)
        mpz_clear(den)
        mpz_clear(w)
        mpz_clear(y)
        mpz_clear(t)
        mpz_clear(binom)
        mpz_clear(term)
        mpz_clear(total)
        mpfr_clear(x)
        mpfr_clear(s)
        mpfr_clear(f)


def eval_comparison(long n_parties, double a, double b, double c, long prec):
    """One pass of the alternating comparison-sequence sum at ``prec`` bits."""
    if n_parties < 2 or prec < 2:
        raise ValueError("invalid kernel arguments")
    cdef mpfr_t aa, bb, cc, den, term, acc
    cdef mpz_t binom
    cdef long j, n1, exp2, max_exp2
    cdef bint any_term = False
    cdef double value, mantissa

    n1 = n_parties - 1
    mpfr_init2(aa, prec)
    mpfr_init2(bb, prec)
    mpfr_init2(cc, prec)
    mpfr_init2(den, prec)
    mpfr_init2(term, prec)
    mpfr_init2(acc, prec)
    mpz_init_set_ui(binom, 1)
    try:
        mpfr_set_d(aa, a, MPFR_RNDN)
        mpfr_set_d(bb, b, MPFR_RNDN)
        mpfr_set_d(cc, c, MPFR_RNDN)
        mpfr_set_ui(acc, 0, MPFR_RNDN)
        max_exp2 = 0
        for j in range(n_parties):
            mpfr_ui_pow(den, j, aa, MPFR_RNDN)
            mpfr_mul(den, den, bb, MPFR_RNDN)
            mpfr_add(den, den, cc, MPFR_RNDN)
            mpfr_mul_ui(den, den, n1, MPFR_RNDN)
            mpfr_ui_div(term, n1 - j, den, MPFR_RNDN)
            mpfr_mul_z(term, term, binom, MPFR_RNDN)
            if not mpfr_zero_p(term):
                if not any_term or mpfr_get_exp(term) > max_exp2:
                    max_exp2 = mpfr_get_exp(term)
                any_term = True
            if j % 2 == 0:
                mpfr_add(acc, acc, term, MPFR_RNDN)
            else:
                mpfr_sub(acc, acc, term, MPFR_RNDN)
            if j < n1:
                mpz_mul_ui(binom, binom, n1 - j)
                mpz_divexact_ui(binom, binom, j + 1)
        if not any_term:
            return (0.0, 0.0, 0, 0, False)
        value = mpfr_get_d(acc, MPFR_RNDN)
        mantissa = mpfr_get_d_2exp(&exp2, acc, MPFR_RNDN)
        return (value, mantissa, exp2, max_exp2, True)
    finally:
        mpfr_clear(aa)
        mpfr_clear(bb)
        mpfr_clear(cc)
        mpfr_clear(den)
        mpfr_clear(term)
        mpfr_clear(acc)
        mpz_clear(binom)
