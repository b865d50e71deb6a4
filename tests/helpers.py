"""Helpers shared by more than one test module."""

from degamma.core import nearest_pole


def sample_regular(rng, p, re_range, im_max, min_dist=0.05, shifted_too=False):
    while True:
        s = complex(rng.uniform(*re_range), rng.uniform(-im_max, im_max))
        d, _, _ = nearest_pole(s, p)
        if d < min_dist:
            continue
        if shifted_too:
            d1, _, _ = nearest_pole(s + 1.0, p)
            if d1 < min_dist:
                continue
        return s


def mp_dgamma(mp, s, lam):
    """40-digit closed form; s as a float or an exact mpmath sum, never rounded."""
    lam, s = mp.mpf(lam), mp.mpc(s)
    u = 1 / lam
    return lam ** (-s) * mp.gamma(s) * mp.gamma(u - s) / mp.gamma(u)
