import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) rebinds fn in every lattice_embed module that holds it
    and returns a list that grows by one entry per call."""

    def install(original):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "lattice_embed":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return install
