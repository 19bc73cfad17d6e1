"""Golden digests of ``analyze``: the byte-identity contract of the analysis
pipeline as a tier-1 test.

``GOLDEN`` was generated on the commit *before* the array-at-a-time rewrite
of nested dissection / partition refinement / relabelled symbolic
factorization (``python tests/test_analysis_golden.py`` prints the dict).
Every ``analyze`` output array — ``perm``, ``snptr``, ``rowptr``, ``rows``,
``sn_parent`` and the permuted matrix's ``indptr`` / ``indices`` — must stay
byte-identical for every pattern, ordering and option toggle below: an
optimisation of the analysis layers may move seconds, never a permutation.
Regenerate only for a change that is *meant* to alter the ordering.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.sparse import (
    SymmetricCSC,
    arrow_matrix,
    grid_laplacian,
    kkt_like,
    random_spd,
    tridiagonal,
    vector_stencil,
)
from repro.symbolic import analyze


def _two_components():
    """A 6x6 grid and a 30-vertex path sharing no edge."""
    a, b = grid_laplacian((6, 6)), tridiagonal(30)
    return SymmetricCSC(
        a.n + b.n,
        np.concatenate([a.indptr, a.indptr[-1] + b.indptr[1:]]),
        np.concatenate([a.indices, a.n + b.indices]),
        np.concatenate([a.data, b.data]))


PATTERNS = {
    "grid2d_5pt": lambda: grid_laplacian((12, 11)),
    "grid2d_9pt": lambda: grid_laplacian((10, 9), connectivity="box"),
    "grid3d": lambda: grid_laplacian((5, 5, 4)),
    "vec3": lambda: vector_stencil((3, 4, 3), 3),
    "kkt": lambda: kkt_like(90, 25, density=0.05),
    "random": lambda: random_spd(150, density=0.03),
    "arrow": lambda: arrow_matrix(80, bandwidth=2, arrow_width=3),
    "path": lambda: tridiagonal(70),
    "two_components": _two_components,
    "diagonal": lambda: SymmetricCSC(5, np.arange(6), np.arange(5), np.ones(5)),
    "n1": lambda: SymmetricCSC(1, [0, 1], [0], [2.0]),
}

#: label → (ordering, ordering_kwargs); "nd8" recurses several levels deep
#: even on these small patterns
ORDERINGS = {
    "nd": ("nd", None),
    "nd8": ("nd", {"leaf_size": 8}),
    "mindeg": ("mindeg", None),
    "rcm": ("rcm", None),
    "natural": ("natural", None),
}

#: (merge, fundamental, refine, refine_method); the method only matters
#: when ``refine`` is on
CONFIGS = [
    (merge, fundamental, refine, method)
    for merge, fundamental in itertools.product((True, False), repeat=2)
    for refine, method in ((False, "best"), (True, "best"), (True, "lex"),
                           (True, "split"))
]


def digest(system):
    """First 16 hex characters of the SHA-256 over every output array."""
    h = hashlib.sha256()
    symb, B = system.symb, system.matrix
    for arr in (system.perm, symb.snptr, symb.rowptr, symb.rows,
                symb.sn_parent, B.indptr, B.indices):
        a = np.ascontiguousarray(arr)
        assert a.dtype == np.int64
        h.update(str(a.size).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def digests(pattern, label):
    A = PATTERNS[pattern]()
    ordering, kwargs = ORDERINGS[label]
    return tuple(
        digest(analyze(A, ordering=ordering, ordering_kwargs=kwargs,
                       merge=merge, fundamental=fundamental, refine=refine,
                       refine_method=method))
        for merge, fundamental, refine, method in CONFIGS)


# one row per (pattern, ordering): the 16 CONFIGS digests in order
GOLDEN = {
    ("grid2d_5pt", "nd"): (
        "d218c72b63a7af06", "8bf9c510518ac474", "d66722d798913d36", "d66722d798913d36",
        "d218c72b63a7af06", "8bf9c510518ac474", "d66722d798913d36", "d66722d798913d36",
        "c07c69c5f5889bf8", "e7a6a04dfbe4196f", "ecc6f103811bfa7d", "ecc6f103811bfa7d",
        "f25c05101e38f48b", "61184521ba260dd1", "d6079d5343465699", "d6079d5343465699",
    ),
    ("grid2d_5pt", "nd8"): (
        "bc2d58a1c0fe2bff", "b838b6461642d974", "e01eca8539991e18", "e01eca8539991e18",
        "bc2d58a1c0fe2bff", "b838b6461642d974", "e01eca8539991e18", "e01eca8539991e18",
        "4fb0a8157baede29", "4fb0a8157baede29", "79d10c2652a55776", "79d10c2652a55776",
        "76e781d4a3703169", "a5ae60bc6cf32f4e", "fd554fb9594a01fd", "fd554fb9594a01fd",
    ),
    ("grid2d_5pt", "mindeg"): (
        "5b9955308541b3ed", "d4d2690e14c9f59c", "dceeef6207d0ac2e", "dceeef6207d0ac2e",
        "5b9955308541b3ed", "d4d2690e14c9f59c", "dceeef6207d0ac2e", "dceeef6207d0ac2e",
        "5b7cb0a666e0f34b", "219d833a62dba0e0", "a38f986f02d17d2a", "a38f986f02d17d2a",
        "add38c9d2cc6c816", "b8075ea4d3048bd4", "ccc20eae2c28a15f", "ccc20eae2c28a15f",
    ),
    ("grid2d_5pt", "rcm"): (
        "cf9fa323c8188470", "cf9fa323c8188470", "4677705cd5b7a3ea", "4677705cd5b7a3ea",
        "cf9fa323c8188470", "cf9fa323c8188470", "4677705cd5b7a3ea", "4677705cd5b7a3ea",
        "dfbebffc78bffdd8", "dfbebffc78bffdd8", "fe37485cc74f4c35", "fe37485cc74f4c35",
        "dfbebffc78bffdd8", "dfbebffc78bffdd8", "fe37485cc74f4c35", "fe37485cc74f4c35",
    ),
    ("grid2d_5pt", "natural"): (
        "e517a09795ef10dc", "792206385d3583b5", "74976928770f917c", "74976928770f917c",
        "e517a09795ef10dc", "792206385d3583b5", "74976928770f917c", "74976928770f917c",
        "a13d93e33fa9c3f6", "a13d93e33fa9c3f6", "4ba69df8a607d3a1", "4ba69df8a607d3a1",
        "a13d93e33fa9c3f6", "a13d93e33fa9c3f6", "4ba69df8a607d3a1", "4ba69df8a607d3a1",
    ),
    ("grid2d_9pt", "nd"): (
        "58025dd797b4d082", "46d447bf74a84fcf", "af634dc7744c7a1b", "af634dc7744c7a1b",
        "58025dd797b4d082", "46d447bf74a84fcf", "af634dc7744c7a1b", "af634dc7744c7a1b",
        "07dcd4829e7e4609", "6cad2d430aabee80", "62bd9651f8936f6a", "62bd9651f8936f6a",
        "000c8cb025648986", "215f10937a5af95a", "420d337c87155a31", "420d337c87155a31",
    ),
    ("grid2d_9pt", "nd8"): (
        "cd5cdcfbb2536429", "4af9be466d615d12", "16903f93ada76fea", "16903f93ada76fea",
        "cd5cdcfbb2536429", "4af9be466d615d12", "16903f93ada76fea", "16903f93ada76fea",
        "1f6fa625e40b1b93", "1491c23dad914c2b", "30cf7fbe260d1379", "30cf7fbe260d1379",
        "5b371e39c70292bd", "13e8790ec185942a", "3ae1f6adff563d31", "3ae1f6adff563d31",
    ),
    ("grid2d_9pt", "mindeg"): (
        "a224f89ee4e763a4", "ff86e9b3c354f27a", "f7dfa06470541e82", "f7dfa06470541e82",
        "a224f89ee4e763a4", "ff86e9b3c354f27a", "f7dfa06470541e82", "f7dfa06470541e82",
        "7c6c9f224299949b", "7c6c9f224299949b", "ab0c74542693c75b", "ab0c74542693c75b",
        "5a6bda71824ece97", "5a6bda71824ece97", "3f72534a63817f25", "3f72534a63817f25",
    ),
    ("grid2d_9pt", "rcm"): (
        "6a0b1da2a9f7f34e", "6a0b1da2a9f7f34e", "9d984c6a03d18465", "9d984c6a03d18465",
        "6a0b1da2a9f7f34e", "6a0b1da2a9f7f34e", "9d984c6a03d18465", "9d984c6a03d18465",
        "18596ea48f5966fd", "18596ea48f5966fd", "a967ae3912bffd02", "a967ae3912bffd02",
        "18596ea48f5966fd", "18596ea48f5966fd", "a967ae3912bffd02", "a967ae3912bffd02",
    ),
    ("grid2d_9pt", "natural"): (
        "aef20773ba21babd", "aef20773ba21babd", "0ceec2646dafba4e", "0ceec2646dafba4e",
        "aef20773ba21babd", "aef20773ba21babd", "0ceec2646dafba4e", "0ceec2646dafba4e",
        "92399df807f3fb2d", "92399df807f3fb2d", "30d81c08d1e15eef", "30d81c08d1e15eef",
        "92399df807f3fb2d", "92399df807f3fb2d", "30d81c08d1e15eef", "30d81c08d1e15eef",
    ),
    ("grid3d", "nd"): (
        "2260f10a97ef5d57", "3e043a09505ccbcf", "b1c9ebd4c1cf805c", "b1c9ebd4c1cf805c",
        "2260f10a97ef5d57", "3e043a09505ccbcf", "b1c9ebd4c1cf805c", "b1c9ebd4c1cf805c",
        "92e86de3327f2e8e", "8d21df4c87a32520", "d433c5be4d1c4a43", "d433c5be4d1c4a43",
        "0f1b02e1d23d6e56", "0f1b02e1d23d6e56", "29ff3d07e4438901", "29ff3d07e4438901",
    ),
    ("grid3d", "nd8"): (
        "830de1aec5bd8ddd", "44c713259ff232eb", "e08130ea5c632cfe", "e08130ea5c632cfe",
        "830de1aec5bd8ddd", "44c713259ff232eb", "e08130ea5c632cfe", "e08130ea5c632cfe",
        "53534d1a2b3d09c4", "92c71e96038f168b", "75358b3d16e9ede5", "75358b3d16e9ede5",
        "135d59e9540c704c", "ec9a23a6a8b3e622", "7c1d328ecab65297", "7c1d328ecab65297",
    ),
    ("grid3d", "mindeg"): (
        "a6fbfcd30045e042", "3e7402adb46ad64d", "0e72e425b9619c71", "0e72e425b9619c71",
        "a6fbfcd30045e042", "3e7402adb46ad64d", "0e72e425b9619c71", "0e72e425b9619c71",
        "42829e5db9847efe", "fd3bf54639636a05", "fb10a7bd40a0ef9c", "fb10a7bd40a0ef9c",
        "28c057968981512b", "8e24f62e89e9464c", "d8c83164dbebf7f0", "d8c83164dbebf7f0",
    ),
    ("grid3d", "rcm"): (
        "9b91c41653cc3842", "9b91c41653cc3842", "5593e06662dca420", "5593e06662dca420",
        "9b91c41653cc3842", "9b91c41653cc3842", "5593e06662dca420", "5593e06662dca420",
        "681883017b52d0d6", "681883017b52d0d6", "9623f90285af94a3", "9623f90285af94a3",
        "681883017b52d0d6", "681883017b52d0d6", "9623f90285af94a3", "9623f90285af94a3",
    ),
    ("grid3d", "natural"): (
        "0292630df1862f18", "69a67761ee4e300d", "1d492aa3668e3035", "1d492aa3668e3035",
        "0292630df1862f18", "69a67761ee4e300d", "1d492aa3668e3035", "1d492aa3668e3035",
        "dd4be8a009344116", "dd4be8a009344116", "fac2656c249ce7ef", "fac2656c249ce7ef",
        "dd4be8a009344116", "dd4be8a009344116", "fac2656c249ce7ef", "fac2656c249ce7ef",
    ),
    ("vec3", "nd"): (
        "3d1cbda5ee5dfc90", "14d4eb50bab0b380", "cdd119fae1cce94b", "cdd119fae1cce94b",
        "3d1cbda5ee5dfc90", "14d4eb50bab0b380", "cdd119fae1cce94b", "cdd119fae1cce94b",
        "0b0e4636aaae5ea5", "342b71c7ccc309f7", "342b71c7ccc309f7", "342b71c7ccc309f7",
        "2ee8ac57debc1ec6", "9c4423e7b3a630a8", "9c4423e7b3a630a8", "9c4423e7b3a630a8",
    ),
    ("vec3", "nd8"): (
        "d880e9b7d34b40a6", "4a462d1e9a9bd580", "4a462d1e9a9bd580", "4a462d1e9a9bd580",
        "d880e9b7d34b40a6", "4a462d1e9a9bd580", "4a462d1e9a9bd580", "4a462d1e9a9bd580",
        "15a840a512ad8f72", "fdd17f1f16254bff", "fdd17f1f16254bff", "fdd17f1f16254bff",
        "d06ce90393ebbd24", "30e669b2f7a88eb6", "30e669b2f7a88eb6", "30e669b2f7a88eb6",
    ),
    ("vec3", "mindeg"): (
        "e6d336e450b2692e", "4d49614abefb687e", "f7abe25d06fa213e", "f7abe25d06fa213e",
        "e6d336e450b2692e", "4d49614abefb687e", "f7abe25d06fa213e", "f7abe25d06fa213e",
        "a9bea075f74d737f", "97c646664a9f2387", "8b14c41e409eb1d7", "8b14c41e409eb1d7",
        "4086bd8691ef350d", "1e7d6380c570919b", "1e7d6380c570919b", "1e7d6380c570919b",
    ),
    ("vec3", "rcm"): (
        "7d162fe2ce42077f", "7d162fe2ce42077f", "e7703b4226f60418", "e7703b4226f60418",
        "7d162fe2ce42077f", "7d162fe2ce42077f", "e7703b4226f60418", "e7703b4226f60418",
        "c2a1413ae817d8e9", "c2a1413ae817d8e9", "d3668db81e08380b", "d3668db81e08380b",
        "c2a1413ae817d8e9", "c2a1413ae817d8e9", "d3668db81e08380b", "d3668db81e08380b",
    ),
    ("vec3", "natural"): (
        "94764bb2f981fd1c", "d8185c42c89d1209", "33275346f5ac9498", "33275346f5ac9498",
        "94764bb2f981fd1c", "d8185c42c89d1209", "33275346f5ac9498", "33275346f5ac9498",
        "fba48f6d1e8c3d6c", "fba48f6d1e8c3d6c", "0049c250e4d6c862", "0049c250e4d6c862",
        "fba48f6d1e8c3d6c", "fba48f6d1e8c3d6c", "0049c250e4d6c862", "0049c250e4d6c862",
    ),
    ("kkt", "nd"): (
        "3cf415064e8c1ca5", "dcaeec8aa7b3fde5", "bb0882e2a7c8bda4", "bb0882e2a7c8bda4",
        "3cf415064e8c1ca5", "dcaeec8aa7b3fde5", "bb0882e2a7c8bda4", "bb0882e2a7c8bda4",
        "ffb6993f5831ed08", "9e93398c1d0d1492", "cfd8693c5838a84a", "cfd8693c5838a84a",
        "10a9dcd79b0f33e1", "ee7ddecd36bad4f5", "3dd3368ff876dbaf", "3dd3368ff876dbaf",
    ),
    ("kkt", "nd8"): (
        "47eb49b6468fca15", "361477b48953d253", "9f9ba0e92a67cdbd", "9f9ba0e92a67cdbd",
        "47eb49b6468fca15", "361477b48953d253", "9f9ba0e92a67cdbd", "9f9ba0e92a67cdbd",
        "7668b53e35ae9395", "fa77a9f4d0bc98c4", "8d2f63e2e8c960d4", "8d2f63e2e8c960d4",
        "dd8a5528e8edebbe", "b9b0872b406b58d7", "83071637afbd9154", "83071637afbd9154",
    ),
    ("kkt", "mindeg"): (
        "41cc2427447c35bb", "65cea30d909e8594", "46abe7f2ad6a0487", "46abe7f2ad6a0487",
        "41cc2427447c35bb", "65cea30d909e8594", "46abe7f2ad6a0487", "46abe7f2ad6a0487",
        "5583101773c455a7", "ded91b60383cf778", "89b319fc271fd955", "89b319fc271fd955",
        "df5d983a565d38b4", "df5d983a565d38b4", "1dd73ac4fd530e06", "1dd73ac4fd530e06",
    ),
    ("kkt", "rcm"): (
        "72b13f9647fa4a00", "1c1db0c64920ca67", "02d7aba990d48214", "02d7aba990d48214",
        "72b13f9647fa4a00", "1c1db0c64920ca67", "02d7aba990d48214", "02d7aba990d48214",
        "6501f791d4e1262a", "67cd4249c5a606b5", "f79b95ecbb2ff417", "f79b95ecbb2ff417",
        "379676ac07f51004", "1007be0505e7c565", "552ed1ef26fbbf3c", "552ed1ef26fbbf3c",
    ),
    ("kkt", "natural"): (
        "d9872af6ce762c87", "cb0bf63bbf7dfa14", "6a8e8175469ec8cc", "6a8e8175469ec8cc",
        "d9872af6ce762c87", "cb0bf63bbf7dfa14", "6a8e8175469ec8cc", "6a8e8175469ec8cc",
        "2da80beb7dc3ee6b", "03f0c7f66861b853", "03f0c7f66861b853", "03f0c7f66861b853",
        "2da80beb7dc3ee6b", "03f0c7f66861b853", "03f0c7f66861b853", "03f0c7f66861b853",
    ),
    ("random", "nd"): (
        "8f581b442701d65f", "4c45ff4cba47db2d", "5fe0c8ab9214e741", "5fe0c8ab9214e741",
        "8f581b442701d65f", "4c45ff4cba47db2d", "5fe0c8ab9214e741", "5fe0c8ab9214e741",
        "18f5e6ebcd13d9a7", "96c8072cb0037b91", "cf4d874961a476fc", "cf4d874961a476fc",
        "86887402cba64529", "0beed5695d868cbf", "9427f1e9bd04792c", "9427f1e9bd04792c",
    ),
    ("random", "nd8"): (
        "96bebd2e5642bb63", "4217f455c1fcd72a", "4217f455c1fcd72a", "4217f455c1fcd72a",
        "96bebd2e5642bb63", "4217f455c1fcd72a", "4217f455c1fcd72a", "4217f455c1fcd72a",
        "8d92f9f1df12660f", "530dbe94063b369a", "d24cd870ad6c6f70", "d24cd870ad6c6f70",
        "bc6d789b6abc9af9", "2ae14b6ca1da8841", "22218e1446f090c0", "22218e1446f090c0",
    ),
    ("random", "mindeg"): (
        "a00b4fa845dc34ca", "ef6966e245621407", "eaec2fc76dc8b462", "eaec2fc76dc8b462",
        "a00b4fa845dc34ca", "ef6966e245621407", "eaec2fc76dc8b462", "eaec2fc76dc8b462",
        "3fee2f07d9c77396", "55504a3429812c9c", "bdb11ed347704c51", "bdb11ed347704c51",
        "9e22df59c8f91835", "b5b71cf356db499a", "b5b71cf356db499a", "b5b71cf356db499a",
    ),
    ("random", "rcm"): (
        "2c0c10aafafe2eb5", "82c170897fda68b8", "82c170897fda68b8", "82c170897fda68b8",
        "2c0c10aafafe2eb5", "82c170897fda68b8", "82c170897fda68b8", "82c170897fda68b8",
        "1407499f8c3c83a8", "d14b9d5d11aeab70", "1c53cf418f64a0e7", "1c53cf418f64a0e7",
        "f54aee690b723f22", "124688df2a372bd7", "640b6b95a0d1b00e", "640b6b95a0d1b00e",
    ),
    ("random", "natural"): (
        "5492fefe46992d4e", "3e0280c9b41019e9", "3e0280c9b41019e9", "3e0280c9b41019e9",
        "5492fefe46992d4e", "3e0280c9b41019e9", "3e0280c9b41019e9", "3e0280c9b41019e9",
        "66199a978f29519b", "94f1f31061c2eb47", "635aeac3a520a53f", "635aeac3a520a53f",
        "67f8e11862e469d9", "f18890f8f9725368", "adc7c52714c37fd0", "adc7c52714c37fd0",
    ),
    ("arrow", "nd"): (
        "a26ef23b10ba23b3", "94d7146e58511426", "4902a5571cbf8d00", "4902a5571cbf8d00",
        "a26ef23b10ba23b3", "94d7146e58511426", "4902a5571cbf8d00", "4902a5571cbf8d00",
        "23405a232e064b22", "23405a232e064b22", "03d6955def5f4592", "03d6955def5f4592",
        "cf37ddd931186d98", "f264e42094c30759", "933e3888265d4448", "933e3888265d4448",
    ),
    ("arrow", "nd8"): (
        "1fc90cde9b6d07cb", "c5934274bacba674", "6b85bf3bd5f86936", "6b85bf3bd5f86936",
        "1fc90cde9b6d07cb", "c5934274bacba674", "6b85bf3bd5f86936", "6b85bf3bd5f86936",
        "6134405926d4949b", "6134405926d4949b", "720a03cf7bcf10c2", "720a03cf7bcf10c2",
        "a4439416fe316cab", "a4439416fe316cab", "4ffdd382b2e3a396", "4ffdd382b2e3a396",
    ),
    ("arrow", "mindeg"): (
        "44d655480ec3dcde", "c4038fcffb026f26", "bfcf081cb2c329df", "bfcf081cb2c329df",
        "44d655480ec3dcde", "c4038fcffb026f26", "bfcf081cb2c329df", "bfcf081cb2c329df",
        "31c7975917e4ac66", "03cfeb5585316f66", "03cfeb5585316f66", "03cfeb5585316f66",
        "31c7975917e4ac66", "03cfeb5585316f66", "03cfeb5585316f66", "03cfeb5585316f66",
    ),
    ("arrow", "rcm"): (
        "f738c47d3d71c787", "4171a607d1751898", "0e1d5a2c5884f85f", "0e1d5a2c5884f85f",
        "f738c47d3d71c787", "4171a607d1751898", "0e1d5a2c5884f85f", "0e1d5a2c5884f85f",
        "9c26e1edb04118c3", "9c26e1edb04118c3", "c66db2f8941ffb9f", "c66db2f8941ffb9f",
        "9c26e1edb04118c3", "9c26e1edb04118c3", "c66db2f8941ffb9f", "c66db2f8941ffb9f",
    ),
    ("arrow", "natural"): (
        "44d655480ec3dcde", "c4038fcffb026f26", "bfcf081cb2c329df", "bfcf081cb2c329df",
        "44d655480ec3dcde", "c4038fcffb026f26", "bfcf081cb2c329df", "bfcf081cb2c329df",
        "31c7975917e4ac66", "03cfeb5585316f66", "03cfeb5585316f66", "03cfeb5585316f66",
        "31c7975917e4ac66", "03cfeb5585316f66", "03cfeb5585316f66", "03cfeb5585316f66",
    ),
    ("path", "nd"): (
        "722caafbba9ee794", "342cf85d2885efdc", "1b7e31485c4f6a08", "1b7e31485c4f6a08",
        "722caafbba9ee794", "342cf85d2885efdc", "1b7e31485c4f6a08", "1b7e31485c4f6a08",
        "eccaeb273f2852a1", "eccaeb273f2852a1", "e5d8cbf18b9780c3", "e5d8cbf18b9780c3",
        "c25164c0c770fb7e", "b3ef9c8720c1c573", "b3ef9c8720c1c573", "b3ef9c8720c1c573",
    ),
    ("path", "nd8"): (
        "f5c16cd922764041", "1b6328fc6c103d33", "64fdf1df7a827308", "64fdf1df7a827308",
        "f5c16cd922764041", "1b6328fc6c103d33", "64fdf1df7a827308", "64fdf1df7a827308",
        "b53fc396e1f1e4fe", "b53fc396e1f1e4fe", "a7028bfe885ab550", "a7028bfe885ab550",
        "3913c6406975f75a", "3913c6406975f75a", "675c747df1aea001", "675c747df1aea001",
    ),
    ("path", "mindeg"): (
        "f3ed52683abedc63", "f3ed52683abedc63", "f802e6f7118cf8df", "f802e6f7118cf8df",
        "f3ed52683abedc63", "f3ed52683abedc63", "f802e6f7118cf8df", "f802e6f7118cf8df",
        "2de62bc1cbee9d09", "2de62bc1cbee9d09", "227ccf10ac6e1561", "227ccf10ac6e1561",
        "2de62bc1cbee9d09", "2de62bc1cbee9d09", "227ccf10ac6e1561", "227ccf10ac6e1561",
    ),
    ("path", "rcm"): (
        "a94079cfb8e767f8", "a94079cfb8e767f8", "f6683661b67e03d2", "f6683661b67e03d2",
        "a94079cfb8e767f8", "a94079cfb8e767f8", "f6683661b67e03d2", "f6683661b67e03d2",
        "4d07328c1f749de9", "4d07328c1f749de9", "a47ff8c699084601", "a47ff8c699084601",
        "4d07328c1f749de9", "4d07328c1f749de9", "a47ff8c699084601", "a47ff8c699084601",
    ),
    ("path", "natural"): (
        "f3ed52683abedc63", "f3ed52683abedc63", "f802e6f7118cf8df", "f802e6f7118cf8df",
        "f3ed52683abedc63", "f3ed52683abedc63", "f802e6f7118cf8df", "f802e6f7118cf8df",
        "2de62bc1cbee9d09", "2de62bc1cbee9d09", "227ccf10ac6e1561", "227ccf10ac6e1561",
        "2de62bc1cbee9d09", "2de62bc1cbee9d09", "227ccf10ac6e1561", "227ccf10ac6e1561",
    ),
    ("two_components", "nd"): (
        "51665b23b99f0550", "bd2c8e7d81f4adbb", "9d5f1e3d6c74a3c2", "9d5f1e3d6c74a3c2",
        "51665b23b99f0550", "bd2c8e7d81f4adbb", "9d5f1e3d6c74a3c2", "9d5f1e3d6c74a3c2",
        "cdcf473d898e43df", "9e96c8e2e20f0516", "de8716ce92472b71", "de8716ce92472b71",
        "0daaf6bdf139ce5a", "b432d8eb39c3106c", "8a3f62826abe870c", "8a3f62826abe870c",
    ),
    ("two_components", "nd8"): (
        "74394c1bcaacc688", "8392854b151e9d28", "a3d73baa7849b68f", "a3d73baa7849b68f",
        "74394c1bcaacc688", "8392854b151e9d28", "a3d73baa7849b68f", "a3d73baa7849b68f",
        "715834b1e069d1d2", "715834b1e069d1d2", "ee40319ffd66328c", "ee40319ffd66328c",
        "1423fb68a7875da2", "1423fb68a7875da2", "2000a56bcd16a71a", "2000a56bcd16a71a",
    ),
    ("two_components", "mindeg"): (
        "448d8c3509d965ca", "e48fd0d39f671852", "1beb8eff2c236adb", "1beb8eff2c236adb",
        "448d8c3509d965ca", "e48fd0d39f671852", "1beb8eff2c236adb", "1beb8eff2c236adb",
        "b23364159cc512ea", "2edbd10fff9e34d3", "88ae4ee41c96f197", "88ae4ee41c96f197",
        "9479258281607926", "0f8667a25cfc7fe1", "39ffa2881145d103", "39ffa2881145d103",
    ),
    ("two_components", "rcm"): (
        "02fb534535391ded", "02fb534535391ded", "6f8ccd2917151c3e", "6f8ccd2917151c3e",
        "02fb534535391ded", "02fb534535391ded", "6f8ccd2917151c3e", "6f8ccd2917151c3e",
        "ae06684aa983fe9e", "ae06684aa983fe9e", "8517d18d5f44a3d4", "8517d18d5f44a3d4",
        "ae06684aa983fe9e", "ae06684aa983fe9e", "8517d18d5f44a3d4", "8517d18d5f44a3d4",
    ),
    ("two_components", "natural"): (
        "2ad9bdb52e81866e", "800d727493cd851a", "a4810301726b3901", "a4810301726b3901",
        "2ad9bdb52e81866e", "800d727493cd851a", "a4810301726b3901", "a4810301726b3901",
        "abc85df115140bbf", "abc85df115140bbf", "4ee3f116bc202df0", "4ee3f116bc202df0",
        "abc85df115140bbf", "abc85df115140bbf", "4ee3f116bc202df0", "4ee3f116bc202df0",
    ),
    ("diagonal", "nd"): (
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
    ),
    ("diagonal", "nd8"): (
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
    ),
    ("diagonal", "mindeg"): (
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
    ),
    ("diagonal", "rcm"): (
        "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4",
        "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4",
        "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4",
        "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4", "05153fcee0b013c4",
    ),
    ("diagonal", "natural"): (
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
        "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a", "4f701c4e9b75c81a",
    ),
    ("n1", "nd"): (
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
    ),
    ("n1", "nd8"): (
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
    ),
    ("n1", "mindeg"): (
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
    ),
    ("n1", "rcm"): (
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
    ),
    ("n1", "natural"): (
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
        "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a", "12ce1d122a048c3a",
    ),
}


@pytest.mark.parametrize("pattern,label", sorted(GOLDEN))
def test_analyze_is_byte_identical_to_golden(pattern, label):
    got = digests(pattern, label)
    moved = [cfg for cfg, g, want in zip(CONFIGS, got, GOLDEN[pattern, label])
             if g != want]
    assert not moved, f"(merge, fundamental, refine, method) moved: {moved}"


def test_golden_covers_every_pattern_and_ordering():
    assert set(GOLDEN) == set(itertools.product(PATTERNS, ORDERINGS))
    assert all(len(row) == len(CONFIGS) for row in GOLDEN.values())


if __name__ == "__main__":
    print("GOLDEN = {")
    for key in itertools.product(PATTERNS, ORDERINGS):
        row = [f'"{d}"' for d in digests(*key)]
        print("    " + repr(key).replace("'", '"') + ": (")
        for i in range(0, len(row), 4):
            print("        " + ", ".join(row[i:i + 4]) + ",")
        print("    ),")
    print("}")
