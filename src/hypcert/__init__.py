"""hypcert: rigorous certification of hyperbolic structures on finite
triangulations of closed oriented 3-manifolds.

The pipeline takes a triangulation plus approximate edge lengths and
either emits a certificate -- interval enclosures proven to contain a
solution of all edge equations together with per-simplex realization
conditions -- or reports a conservative failure.
"""

from .interval import Interval, MPInterval, kernel_for_precision
from .triangulation import Triangulation, parse, parse_file
from .geometry import EdgeParams
from .verify import run_pipeline
from .certificate import certificate_json, parse_certificate, recheck

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "MPInterval",
    "kernel_for_precision",
    "Triangulation",
    "parse",
    "parse_file",
    "EdgeParams",
    "run_pipeline",
    "certificate_json",
    "parse_certificate",
    "recheck",
    "__version__",
]


def bundled_fixture(name):
    """Path of a bundled triangulation data file, e.g. 'dodec27a.tri'."""
    import importlib.resources

    return importlib.resources.files("hypcert").joinpath("data", name)
