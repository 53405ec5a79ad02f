"""Exact invariants of links in negative-definite plumbed rational homology spheres.

Subpackages:

- ``linalg``: exact integer/rational matrix arithmetic (fraction-free
  Gauss–Jordan inverses over the denominator |det|, of surgery matrices
  alone; Smith normal form, whose s^-1 the metaboliser reads off s·Q·t = D).
- ``plumbing``: plumbing trees, intersection forms (Q^-1 of a definite one
  from its tree's branch determinants), characteristic vectors, boundary
  spin-c classes and correction terms.
- ``tau``: the lattice tau-invariant of leaf-fibre links, held as one integer profile.
- ``surgery``: linking-matrix formulas for surgery presentations, self-linking
  numbers, braid and curve identities.
- ``floer``: filtered chain complexes over F2[U], their correction terms
  and tau of Alexander-type filtrations.
- ``obstruct``: decision procedures obstructing links from bounding
  holomorphic curves in Stein fillings.
- ``paper``: the paper's examples in L(9,2) and L(4,1) and their golden tables.
- ``cli``: JSON front end and regression tables; the handlers of
  ``surgery`` and ``tau-qp`` (``cli_surgery``), ``floer`` (``cli_floer``),
  ``obstruct`` (``cli_obstruct``) and ``paper-examples`` (``cli_paper``),
  and the help and ``--format table`` code (``cli_help``), are modules of
  their own.

``import plumbtau`` loads none of them: ``plumbtau.<layer>`` imports the
layer on first use, with ``__import__`` rather than ``importlib``, so a CLI
call loads only the layers its subcommand reads and, of the ``cli_*``
modules, only the one that runs it.  Where no ``.pyc`` can be written, each
module a call loads is compiled from source, so a ``spinc`` or ``dinv``
call compiles ``cli`` and ``plumbing`` alone, ``tau`` also ``tau``, and
``tau-qp`` ``cli``, ``cli_surgery`` and ``surgery`` alone.
``fractions`` (with ``decimal`` and ``numbers``) is imported by the
functions that make a Fraction, which no ``spinc``, ``dinv``, ``tau``,
``tau-qp`` or ``floer`` call runs, nor any ``obstruct`` check but
``slice-bennequin``: every other exact value is an integer over a known
denominator, written by ``_quotient``, defined here, or, for ``tau-qp``,
an integer.  No call but ``paper-examples`` imports the ``json`` package or
``importlib``: ``cli`` reads and writes JSON with the C functions of
``_json`` that it wraps.  A call run as the
program (``cli.main()`` with no argv) registers ``gc.freeze`` as an exit
hook, so the interpreter's exit-time collections skip every object still
alive; an in-process ``main(argv)`` touches neither ``gc`` nor ``atexit``.

The package's records are NamedTuples or plain classes, never dataclasses:
``dataclasses`` imports ``inspect`` (and through it ``ast``, ``dis`` and
``tokenize``), 9-11.5 ms of every CLI call, and builds each class in about
1 ms, against 0.1-0.2 ms for a NamedTuple.  A record with checks is a
NamedTuple of its fields, which states each field and default once, plus a
subclass of ``_Checked``, defined here, whose ``_check`` runs them, as
``floer.FloerComplex`` is; ``_replace`` and ``_make`` run no check, so the
package uses neither.  A record that normalises its fields, a tree's fresh
markings or a presentation's tuples and inverse, keeps a ``__new__`` of its
own (``plumbing.PlumbingTree``, ``surgery.SurgeryPresentation``).
``IntersectionForm`` and ``SpincClass``
(``plumbing``) are plain classes, since their equality leaves fields out and
the form caches what it reads from its tree.  Both refuse assignment through
``_Frozen``, defined here, as ``surgery.SurgeryPresentation`` and
``floer.FloerComplex`` do, NamedTuples that keep a derived value in their
``__dict__``: the presentation its inverse, the complex its row view
``_rows``, built when first read.  A value that is only a tuple is returned
as one: ``floer.verify_axioms`` gives its failures, and a complex passes
when there are none.

A record's fields are its independent inputs, and what follows from them is
a property: a form is its tree (``order``, ``q``, ``negative_definite``), a
link its multiplicities (``ell``), a metaboliser candidate its elements
(``order``) and a complex its gradings (``generators``).  No constructor
takes a value it could work out, so none checks that two copies agree.

A record's checks are its methods (``IntersectionForm.require_box``,
``FloerComplex.require_size``), and an inverse or a view it keeps is its
attribute (``IntersectionForm.qinv``, read from a definite form's tree,
``surgery.SurgeryPresentation.qinv`` and ``floer.FloerComplex._rows``), never
a module-level cache: a value cache is state shared between records, which a
test must clear and a record built in between evicts.
"""

__version__ = "0.1.0"

# The golden tables of ``paper``, named here so that the CLI parser can offer
# them without importing paper and, through it, every layer.
EXAMPLE_NAMES = ("l2d", "m3d", "nk", "m3", "eq72")

_LAYERS = frozenset({"linalg", "plumbing", "tau", "surgery", "floer", "obstruct", "paper", "cli"})


class _Frozen:
    """Refuses assignment and deletion of any attribute.

    A record sets its fields past it: with ``object.__setattr__``, through
    ``__dict__``, or as the tuple a NamedTuple's ``__new__`` builds.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Checked:
    """Runs the record's ``_check`` once its NamedTuple has set the fields.

    ``_check(self)`` raises on a bad record.  It runs however the record is
    built, positionally, by keyword or with its defaults left out, since
    ``__init__`` follows the NamedTuple's ``__new__``; ``_make`` and
    ``_replace`` call no ``__init__``, so they run no check.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self._check()


# Here, not in ``linalg``, so a d or tau table loads no linear algebra to write
# its values.
def _quotient(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, written with one gcd and no Fraction."""
    # imported here, at about 0.15 us a call, so that a floer or tau-qp call,
    # which writes no quotient, loads no math module
    import math

    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if g < den else str(num // g)


def __getattr__(name: str):
    if name in _LAYERS:
        # __import__ and sys.modules, not importlib.import_module: the import
        # system runs this on every ``from . import <layer>`` of a layer not
        # yet loaded, and importlib is a module a call would load for it
        import sys

        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
