"""Pinned digests of full CLI outputs.

Every verification and Chow-ring result below is recomputed from the root
data; the sha256 of the JSON stdout pins it byte for byte, so a refactor of
the suites or the engines that changes a single check name, value or
ordering fails here.  ``verify --type all`` holds every check string, so it
also pins the signed-sum text of polynomials and Schubert expansions.  The
rank-10 ``verify`` outputs pin the B/D suites above the default sweep, whose
degree-2 tables have the letter 10 and whose Chern classes reach degree 10.
The rank-6 ``chow`` outputs pin Chow rings whose strata are large enough that
most pivots come from the unit phase, and the B10 one pins Schubert words
with letters above 9, which are comma-separated.  The B12 and D12 ``chow``
outputs, in both forms, pin the rank where the generator powers reach codim
48 (B12) and the SO strata have up to 124 rows; their digests were computed
by the Leibniz powers and the undivided cokernels that the Pieri powers and
the content division replaced.  The G2 and F4 ``so``
outputs pin the only Chow rings whose degree-2 lattice is spanned by the
t-classes of an exceptional type, F4's extra class t among them, and the
spin outputs (no ``--variant``) those over the full weight lattice; both
take every stratum from the upper covers of the one below.  The two
``basis`` outputs pin the lex-min word order of a middle stratum, the order
that ``pos`` indexes.  The
``giambelli`` outputs pin representatives whose descents start at different
parabolic tops w0 w_{0,J}, in types B, D (where w0 is not -1) and F4; the
descents of the B6 and D6 words of lengths 15 and 11 start from the products
of 35 of the 36 and 28 of the 30 positive roots, and the D7 Coxeter element
1234567 is a rank-7 descent.  The ``structconst`` output
pins a product of two length-9 classes of B6, in the 3,210-element middle
stratum.  The ``expand`` outputs pin whole Schubert expansions of powers of
the sum of the fundamental weights, in F4 and B5, in their printed order.
The B12 and B30 ``expand`` outputs pin expansions that walk only their
support, at ranks where enumerating the strata up to the degree is slow
(B12) or out of reach (B30).  Their words use no letter above 9, far from
the end of the B diagram, so B30 prints the bytes of B12: the B30 ``w2^6``
digest is that of B12 ``w2^6`` as the stratum walk computed it, and the
B12 ``(w1+w2)^8`` digest is the stratum walk's too.
"""

import contextlib
import hashlib
import io

import pytest

from flagcalc import cli

DIGESTS = [
    (
        ("verify", "--type", "all"),
        "d2f02c51804789b080a853e71c5448d424ae85cf348402a276d2b2bbc062bf81",
    ),
    (
        ("verify", "--type", "G2,F4"),
        "40d701f4aa9ff359dbb04e25c2209bfbb0f7be31f0469e301c22b3f75ab61858",
    ),
    (
        ("verify", "--type", "B", "--rank", "4"),
        "ffd15023ef407a387fff14ea3a88a4e79dee5ee45e66438305c92ea3d62fdb5f",
    ),
    (
        ("verify", "--type", "D", "--rank", "4"),
        "24d0fd0f58fcc8c273a410d9063f95e1fca4894e941a92e230c5c6c034c5e968",
    ),
    (
        ("verify", "--type", "B", "--rank", "10"),
        "b1b2ec1db8e08fac03650e15592b7215501a6677344e745763ad4a2e2a5685c9",
    ),
    (
        ("verify", "--type", "D", "--rank", "10"),
        "234994e808a260135968cb77a9c2dabcf9db42f406b13ded1e047a2589452012",
    ),
    (
        ("chow", "--type", "B", "--rank", "4", "--variant", "so"),
        "960baeaff070dce0208e1cd1e3a37d72f60a7bce80f967ed410196d12627c9cf",
    ),
    (
        ("chow", "--type", "G2"),
        "3e278d1efdf529fa05c2a9cec25722be6c0f0539310711f318b37188111754ee",
    ),
    (
        ("chow", "--type", "F4"),
        "a0141312992b6995d3623b30b111c07393e691b313a29c13e4477a2699d812f8",
    ),
    (
        ("chow", "--type", "G2", "--variant", "so"),
        "97da0e84725e6e03847192aedc7aeb9eb578e36c9091f651bb4c460704e3da8c",
    ),
    (
        ("chow", "--type", "F4", "--variant", "so"),
        "4033c0798a25d03878a27bbee9df7405103d3670cca26462f921b13c7843e8ae",
    ),
    (
        ("chow", "--type", "D", "--rank", "6"),
        "d25904c5699d82200c55d59d5583fa1d97b4660b61027334ad480d666f2bfe53",
    ),
    (
        ("chow", "--type", "B", "--rank", "6", "--variant", "so"),
        "c6653419fc9406ca645547426c57b9fc49e244d0085f44cf257a47ccb8dd46ec",
    ),
    (
        ("chow", "--type", "B", "--rank", "10", "--max-codim", "3"),
        "902f09b7aafad155dfa1764cfcdbf76afa4b1ff6766b82585ef9b0bbc5cc705b",
    ),
    (
        ("chow", "--type", "B", "--rank", "12"),
        "9582115477ab3607df9373c4ea0803ced9856a671e1ed537cf26bdfefb0ff2cc",
    ),
    (
        ("chow", "--type", "B", "--rank", "12", "--variant", "so"),
        "f316f8e3a48ae36d04d23c418270d8205f8b6a5b97492b65f0402cb234c13515",
    ),
    (
        ("chow", "--type", "D", "--rank", "12"),
        "a62cb70432359084c2fa965f4f1306ada92f0cdcd41e7e55a11c5101bf6a7a91",
    ),
    (
        ("chow", "--type", "D", "--rank", "12", "--variant", "so"),
        "a4704883cc2c139b84c75eb5128fa86e7eb0b81f9757429284f8f209b9850b17",
    ),
    (
        ("basis", "--type", "D", "--rank", "5", "--codim", "10"),
        "181c62ab0fc483c7b06e2ce37f1c28d4f55e4fbcef8b20206ec7b85cdb708221",
    ),
    (
        ("basis", "--type", "F4", "--codim", "12"),
        "5b2f278b9a7fe8e8c22b94036f698cb1fd27273ab80cb8929b01f6be79135f1c",
    ),
    (
        ("giambelli", "--type", "B", "--rank", "6", "--word", "123456"),
        "287bdfe84171d81b42dc31f2808da04f15fe76a655ae5ad594c2f5e109bcfd3f",
    ),
    (
        ("giambelli", "--type", "D", "--rank", "5", "--word", "4"),
        "4ad8d3907bcfd8c7911f44791d313965aea25f5bd7f26442c3b32b0d4994a715",
    ),
    (
        ("giambelli", "--type", "F4", "--word", "2323"),
        "7a8152643644ba0518944a4e6c5e8b637bc5ebaed10cd149dc8b2f102912e9f2",
    ),
    (
        ("giambelli", "--type", "F4", "--word", "1234"),
        "217b3be18f45e0c2454914b1e17a6e97652e8ceef0069491977ca78902735b6d",
    ),
    (
        ("giambelli", "--type", "B", "--rank", "6", "--word", "121321432154321"),
        "c2ffa3661d70a337662315833a7b698676d130c05bf520f30fd514170199ce17",
    ),
    (
        ("giambelli", "--type", "D", "--rank", "6", "--word", "12132143215"),
        "849b4c49c8e4925575fc8ffef7d94b799fc7b6eac7dd81855b115eb919fa7598",
    ),
    (
        ("giambelli", "--type", "D", "--rank", "7", "--word", "1234567"),
        "c933950046eeeb73df9cd792935e363c60b27aeb5a8fc9f08338b4e198fa618a",
    ),
    (
        ("structconst", "--type", "B", "--rank", "6", "--u", "121321432", "--v", "654365465"),
        "9a58fe502e054de8ab636730c2d3f4132ce690c4dae784f0e0ec5a40685888d7",
    ),
    (
        ("expand", "--type", "F4", "--expr", "(w1+w2+w3+w4)^10"),
        "b7bce807698869dd710cab5925d5f104d23d68fff482bb303242dc7baafc6952",
    ),
    (
        ("expand", "--type", "B", "--rank", "5", "--expr", "(w1+w2+w3+w4+w5)^8"),
        "a9a482af34be119b2ec598f4a1d834b417109f178d90344e082a0a97c50b5166",
    ),
    (
        ("expand", "--type", "B", "--rank", "12", "--expr", "(w1+w2)^8"),
        "183f956aa96f3e5341d22209b985c8e8eb53f34e86f70eaa8e4e46eb50401aa9",
    ),
    (
        ("expand", "--type", "B", "--rank", "30", "--expr", "w2^6"),
        "e5906a02e7da9d4c6d2037fe7ab84e48f0c3d194f43e1486a6dd04ded0c5ec97",
    ),
]


@pytest.mark.parametrize("argv,digest", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_json_stdout_digest(argv, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
