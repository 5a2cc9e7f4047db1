import pytest

from pclab import errors


def test_default_caps():
    caps = errors.Caps()
    assert caps.primes_hi == 10**10
    assert caps.weyl_terms == 10**8


def test_env_single_integer_rewrites_count_caps():
    caps = errors.caps_from_env("1e6")
    assert caps.primes_hi == 10**6
    assert caps.weyl_terms == 10**6
    assert caps.prec_cap_bits == 10**5  # bit budgets untouched


def test_env_key_value_pairs():
    caps = errors.caps_from_env("weyl_terms=1e9, prec_cap_bits=2e5")
    assert caps.weyl_terms == 10**9
    assert caps.prec_cap_bits == 2 * 10**5
    assert caps.primes_hi == 10**10


def test_env_values_are_exact_integers():
    # read as exact decimals, never through a float
    assert errors.caps_from_env("1e30").primes_hi == 10**30
    assert errors.caps_from_env("mangoldt_x=1e400").mangoldt_x == 10**400


def test_env_rejects_unknown_cap():
    with pytest.raises(errors.OutOfRange):
        errors.caps_from_env("nope=3")


def test_cap_enforced():
    from pclab import primes

    small = errors.caps_from_env("1000")
    with pytest.raises(errors.RangeTooLarge):
        primes.primes_in(0, 2000, caps=small)
