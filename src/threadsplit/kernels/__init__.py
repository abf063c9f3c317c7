"""Bundled demo programs in the textual cfg format."""

from importlib import resources

KERNELS = ("evens", "fib", "prime")


def kernel_text(name: str) -> str:
    if name not in KERNELS:
        raise KeyError(f"unknown kernel {name!r}; available: {', '.join(KERNELS)}")
    return resources.files(__package__).joinpath(f"{name}.cfg").read_text()

