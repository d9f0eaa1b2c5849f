"""The seven records of the package keep the values and the text they had
as dataclasses: each hashes as the tuple of its fields, so no dict or cache
order moves, and prints the same repr.  The five value records are
namedtuples; BlockMat and Endo are not tuples, so they have no +, len or
iteration."""

import pytest

from prymrep.foxcover import CoverClass, Endo
from prymrep.generators import FAMILIES, Family, GenSpec, matrix_of
from prymrep.predicates import GroupTag, Verdict
from prymrep.sweeps import SweepReport

_AH = FAMILIES["AH"].entries
_T = matrix_of(GenSpec("T"), 5, 2)
_PHI = Endo(((2, 1, -1, 1), (2,)), ((-2, 1), (2,)))


@pytest.mark.parametrize("record, fields, text", [
    (GenSpec("T"), ("T", (), None, None),
     "GenSpec(name='T', indices=(), scalar=None, matrix=None)"),
    (GenSpec("Ti", (1,), (1, 0, 1, 0)), ("Ti", (1,), (1, 0, 1), None),
     "GenSpec(name='Ti', indices=(1,), scalar=(1, 0, 1), matrix=None)"),
    (GenSpec("UrSp", matrix=[[[1], [0, 0]]]), ("UrSp", (), None, (((1,), (0,)),)),
     "GenSpec(name='UrSp', indices=(), scalar=None, matrix=(((1,), (0,)),))"),
    (Verdict(True), (True, ""), "Verdict(ok=True, reason='')"),
    (Verdict(False, "no"), (False, "no"), "Verdict(ok=False, reason='no')"),
    (CoverClass(((1, -1, 0),), 2), (((1, -1, 0),), 2), "CoverClass(loops=((1, -1, 0),), lam=2)"),
    (FAMILIES["AH"], ("p", "", GroupTag.Lambda, _AH),
     f"Family(slots='p', takes='', group=<GroupTag.Lambda: 'Lambda'>, entries={_AH!r})"),
    (SweepReport("s", True, 3), ("s", True, 3, ""),
     "SweepReport(name='s', ok=True, checked=3, detail='')"),
    (_T, (_T.mat, 2), "BlockMat(g=2, d=5, 'z, 0 ; 0, z')"),
    (_PHI, (((2, 1), (2,)), ((-2, 1), (2,))),
     "Endo(images=((2, 1), (2,)), inverse_images=((-2, 1), (2,)))"),
], ids=["GenSpec", "GenSpec-scalar", "GenSpec-matrix", "Verdict", "Verdict-reason",
        "CoverClass", "Family", "SweepReport", "BlockMat", "Endo"])
def test_a_record_hashes_as_its_fields_and_keeps_its_repr(record, fields, text):
    assert hash(record) == hash(fields)
    assert repr(record) == text
    assert record == type(record)(*fields) and hash(type(record)(*fields)) == hash(record)


def test_value_records_are_tuples_and_the_matrix_and_map_are_not():
    assert all(issubclass(cls, tuple) and cls.__slots__ == ()
               for cls in (GenSpec, Verdict, CoverClass, Family, SweepReport))
    assert not Verdict(False, "no") and Verdict(True)
    for x, fields in ((_T, (_T.mat, 2)), (_PHI, (_PHI.images, _PHI.inverse_images))):
        assert not isinstance(x, tuple) and x != fields
        for op in (lambda: x + x, lambda: len(x), lambda: iter(x), lambda: x[0]):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        _PHI * 2
    assert (_T * 2).mat == _T.mat * 2  # the scalar product, not repetition
