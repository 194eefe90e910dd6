import pytest

from dppmm import dynamic, ppmm


@pytest.fixture(scope="session")
def train_exact():
    """``train_dppmm`` fitting every pair with exact (sorted) 1D maps.

    The library trains KDE maps only; exact maps remain ``ppmm.fit_ppmm``'s
    default, so the returned function runs ``train_dppmm`` with its
    ``fit_ppmm`` patched to ``bandwidth=None`` and the step cap ``max_iter``.
    Exact knots are one per source row, so snapshots 0..M-2 must share one
    row count for the model's knot matrices to stack.
    """

    def train(series, max_iter=None, **kwargs):
        def fit(x, y, **kw):
            return ppmm.fit_ppmm(x, y, **{**kw, "bandwidth": None, "max_iter": max_iter})

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamic, "fit_ppmm", fit)
            return dynamic.train_dppmm(series, **kwargs)

    return train
