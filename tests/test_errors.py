import pytest

from pclab import cli, errors


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


@pytest.mark.parametrize("text", ["0", "7", " 7 ", "+4", "1e6", "4/2", "6 / 2", "2.5", "-5", "abc", "1/0", ""])
def test_cap_values_read_as_the_cli_reads_integers(text):
    # one ratio reader: a cap value is what --x would read, if a non-negative integer
    if text in ("2.5", "-5", "abc", "1/0", ""):
        with pytest.raises(errors.OutOfRange):
            errors._cap_value(text)
    else:
        assert errors._cap_value(text) == cli._int_arg(text)


def test_env_rejects_unknown_cap():
    with pytest.raises(errors.OutOfRange):
        errors.caps_from_env("nope=3")


def test_cap_enforced():
    from pclab import primes

    small = errors.caps_from_env("1000")
    with pytest.raises(errors.RangeTooLarge):
        primes.primes_in(0, 2000, caps=small)
