"""Matrix-form references for the Hamming code and its polynomials.

``HammingCode`` computes syndromes with a CRC and never builds a matrix;
these helpers state the same code the textbook way — generator and
parity-check matrices, the syndrome as ``B @ H^T`` — and search for
primitive polynomials by brute force, so the CRC shortcut and Table 1 can be
checked against them.
"""

from repro.core.crc import is_primitive_polynomial
from repro.exceptions import CodingError


def parity_check_matrix(code):
    """Parity-check matrix ``H`` as ``m`` rows of ``n`` bits.

    Column ``j`` (counting from the left, i.e. from the coefficient of
    ``x**(n-1)``) is the syndrome of a single-bit error at position
    ``n - 1 - j``, matching the paper's ``CRC(B) = B @ H^T`` formulation.
    """
    columns = [code.syndrome_of_error_position(code.n - 1 - j) for j in range(code.n)]
    return [
        [(column >> (code.m - 1 - row)) & 1 for column in columns]
        for row in range(code.m)
    ]


def generator_matrix(code):
    """Systematic generator matrix ``G_s`` as ``k`` rows of ``n`` bits.

    Row ``i`` is the codeword of the unit message with bit ``k - 1 - i``
    set: the ``[I_k | P]``-with-message-high form ``HammingCode`` uses.
    """
    rows = []
    for i in range(code.k):
        codeword = code.encode(1 << (code.k - 1 - i))
        rows.append([(codeword >> (code.n - 1 - j)) & 1 for j in range(code.n)])
    return rows


def syndrome_via_matrix(code, chunk):
    """The syndrome of ``chunk`` by explicit multiplication with ``H^T``."""
    matrix = parity_check_matrix(code)
    bits = [(chunk >> (code.n - 1 - j)) & 1 for j in range(code.n)]
    syndrome = 0
    for row in range(code.m):
        accumulator = 0
        for j in range(code.n):
            accumulator ^= matrix[row][j] & bits[j]
        syndrome = (syndrome << 1) | accumulator
    return syndrome


def correct(code, received):
    """Correct at most one bit error in ``received``.

    Returns ``(corrected_word, flipped_position)``, the position ``None``
    when the word was already a codeword.  ZipLine never corrects a chunk;
    this checks the code algebra.
    """
    syndrome = code.syndrome(received)
    if syndrome == 0:
        return received, None
    position = code.syndrome_table.positions[syndrome]
    return received ^ (1 << position), position


def bases_sharing_chunk(code, basis):
    """How many ``n``-bit chunks split to ``basis``, counted exhaustively."""
    return sum(
        1 for chunk in range(1 << code.n) if code.chunk_to_basis(chunk)[0] == basis
    )


def find_primitive_polynomials(m, limit=None):
    """Primitive polynomials of degree ``m`` by brute force.

    Full-form polynomials with a non-zero constant term, lowest value first.
    """
    if m <= 0:
        raise CodingError(f"degree must be positive, got {m}")
    found = []
    for candidate in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_primitive_polynomial(candidate):
            found.append(candidate)
            if limit is not None and len(found) >= limit:
                break
    return found
