"""Mini-C corpus shared by the differential and backend smoke tests.

Each entry is ``(program_source, function_name, inputs)`` where ``inputs``
is a list of argument tuples the function is executed on.  The functions
deliberately exercise the features the SLaDe evaluation leans on: counted
loops (so -O3 unrolling kicks in), pointers and out-parameters, structs,
signed division/modulo, shifts, floats and globals.
"""

CORPUS = [
    (
        """
int sum_to(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += i;
    }
    return s;
}
""",
        "sum_to",
        [(0,), (1,), (7,), (100,)],
    ),
    (
        """
long dot(int *a, int *b, int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) {
        acc += a[i] * b[i];
    }
    return acc;
}
""",
        "dot",
        [([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], 5), ([-7, 9], [3, -2], 2)],
    ),
    (
        """
void reverse(int *a, int n) {
    int i = 0;
    int j = n - 1;
    while (i < j) {
        int tmp = a[i];
        a[i] = a[j];
        a[j] = tmp;
        i++;
        j--;
    }
}
""",
        "reverse",
        [([1, 2, 3, 4, 5, 6], 6), ([10], 1), ([4, 8], 2)],
    ),
    (
        """
int fib(int n) {
    int a = 0;
    int b = 1;
    for (int i = 0; i < n; i++) {
        int t = a + b;
        a = b;
        b = t;
    }
    return a;
}
""",
        "fib",
        [(0,), (1,), (10,), (20,)],
    ),
    (
        """
int divmod_mix(int a, int b) {
    if (b == 0) {
        return -1;
    }
    return a / b * 1000 + a % b;
}
""",
        "divmod_mix",
        [(17, 5), (-17, 5), (17, -5), (-17, -5), (42, 0)],
    ),
    (
        """
int shifty(int x, int s) {
    return (x << (s & 7)) ^ (x >> 1);
}
""",
        "shifty",
        [(1, 3), (255, 7), (-64, 2), (1024, 33)],
    ),
    (
        """
typedef struct Point {
    int x;
    int y;
} Point;

int manhattan(Point *p, Point *q) {
    int dx = p->x - q->x;
    int dy = p->y - q->y;
    if (dx < 0) {
        dx = -dx;
    }
    if (dy < 0) {
        dy = -dy;
    }
    return dx + dy;
}
""",
        "manhattan",
        [({"x": 1, "y": 2}, {"x": 4, "y": 6}), ({"x": -3, "y": 0}, {"x": 3, "y": -4})],
    ),
    (
        """
typedef struct Point {
    int x;
    int y;
} Point;

void scale_point(Point *p, int k) {
    p->x = p->x * k;
    p->y = p->y * k;
}
""",
        "scale_point",
        [({"x": 3, "y": -2}, 5), ({"x": 0, "y": 7}, -1)],
    ),
    (
        """
int my_strlen(char *s) {
    int n = 0;
    while (s[n] != 0) {
        n++;
    }
    return n;
}
""",
        "my_strlen",
        [("hello",), ("",), ("a longer string with spaces",)],
    ),
    (
        """
int count_eq(char *s, int c) {
    int n = 0;
    for (int i = 0; s[i] != 0; i++) {
        if (s[i] == c) {
            n++;
        }
    }
    return n;
}
""",
        "count_eq",
        [("banana", 97), ("mississippi", 115), ("", 120)],
    ),
    (
        """
int max_of(int *a, int n) {
    int best = a[0];
    for (int i = 1; i < n; i++) {
        if (a[i] > best) {
            best = a[i];
        }
    }
    return best;
}
""",
        "max_of",
        [([3, 1, 4, 1, 5, 9, 2, 6], 8), ([-5, -2, -9], 3)],
    ),
    (
        """
void bubble_sort(int *a, int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j + 1 < n - i; j++) {
            if (a[j] > a[j + 1]) {
                int tmp = a[j];
                a[j] = a[j + 1];
                a[j + 1] = tmp;
            }
        }
    }
}
""",
        "bubble_sort",
        [([5, 2, 9, 1, 7, 3], 6), ([2, 1], 2), ([4], 1)],
    ),
    (
        """
int gcd(int a, int b) {
    while (b != 0) {
        int t = a % b;
        a = b;
        b = t;
    }
    return a;
}
""",
        "gcd",
        [(12, 18), (17, 5), (100, 75), (7, 0)],
    ),
    (
        """
int collatz_steps(int n) {
    int steps = 0;
    while (n != 1 && steps < 1000) {
        if (n % 2 == 0) {
            n = n >> 1;
        } else {
            n = 3 * n + 1;
        }
        steps++;
    }
    return steps;
}
""",
        "collatz_steps",
        [(1,), (6,), (27,)],
    ),
    (
        """
double avg(int *a, int n) {
    double total = 0.0;
    for (int i = 0; i < n; i++) {
        total = total + a[i];
    }
    if (n == 0) {
        return 0.0;
    }
    return total / n;
}
""",
        "avg",
        [([1, 2, 3, 4], 4), ([10, -10, 30], 3), ([], 0)],
    ),
    (
        """
double poly(double x) {
    return 3.0 * x * x - 2.0 * x + 1.5;
}
""",
        "poly",
        [(0.0,), (1.0,), (-2.5,), (10.0,)],
    ),
    (
        """
int clamp(int x, int lo, int hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}
""",
        "clamp",
        [(5, 0, 10), (-5, 0, 10), (15, 0, 10)],
    ),
    (
        """
int sum_ptr(int *a, int n) {
    int s = 0;
    int *p = a;
    while (n > 0) {
        s += *p;
        p++;
        n--;
    }
    return s;
}
""",
        "sum_ptr",
        [([1, 2, 3, 4, 5], 5), ([-1, 1], 2), ([], 0)],
    ),
    (
        """
int counter;

int bump(int k) {
    counter += k;
    return counter * 2;
}
""",
        "bump",
        [(1,), (5,), (-2,)],
    ),
    (
        """
unsigned int uwrap(unsigned int a, unsigned int b) {
    return a * b + 7;
}
""",
        "uwrap",
        [(65535, 65537), (4000000000, 2), (3, 5)],
    ),
    (
        """
int skip_sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (a[i] < 0) {
            continue;
        }
        if (a[i] > 100) {
            break;
        }
        s += a[i];
    }
    return s;
}
""",
        "skip_sum",
        [([1, -2, 3, 200, 4], 5), ([50, 60, -70], 3)],
    ),
    (
        """
int grid_sum(int *m, int rows, int cols) {
    int s = 0;
    for (int i = 0; i < rows; i++) {
        for (int j = 0; j < cols; j++) {
            s += m[i * cols + j];
        }
    }
    return s;
}
""",
        "grid_sum",
        [([1, 2, 3, 4, 5, 6], 2, 3), ([7], 1, 1)],
    ),
    (
        """
int wrap_shift(int n) {
    return (1 << 33) + n;
}
""",
        "wrap_shift",
        [(0,), (5,), (-2,)],
    ),
    # -- width-sensitive functions: the 32-bit intermediate overflows (or the
    # -- signedness matters) BEFORE the value is stored, so 64-bit codegen
    # -- would silently diverge from the interpreter's wrapped semantics.
    (
        """
int prod_div(int a, int b, int c) {
    return a * b / c;
}
""",
        "prod_div",
        [(100000, 100000, 1000), (-50000, 70000, 9), (46341, 46341, 7), (12, 3, 4)],
    ),
    (
        """
int mac_chain(int a, int b, int c) {
    int acc = a;
    for (int i = 0; i < 6; i++) {
        acc = acc * b + c;
    }
    return acc / 5;
}
""",
        "mac_chain",
        [(3, 1000, 7), (-2, 99991, 12345), (1, 2, 3)],
    ),
    (
        """
int mixed_cmp(int a, unsigned int b) {
    int n = 0;
    if (a < b) {
        n = n + 1;
    }
    if (a > b) {
        n = n + 2;
    }
    if (a == b) {
        n = n + 4;
    }
    return n;
}
""",
        "mixed_cmp",
        [(-1, 1), (-2147483647, 4294967295), (5, 5), (7, 3), (-1, 4294967295)],
    ),
    (
        """
int narrow_cast(long x) {
    int y = (int) x;
    return y / 3;
}
""",
        "narrow_cast",
        [(4294967305,), (-4294967291,), (21,), (8589934592,)],
    ),
    (
        """
int shl_div(int x, int s) {
    return (x << s) / 4;
}
""",
        "shl_div",
        [(1, 31), (3, 30), (-1, 20), (5, 2)],
    ),
    (
        """
unsigned int udiv_wrap(unsigned int a, unsigned int b) {
    return a * a / b + (a * 3 - b) % 7;
}
""",
        "udiv_wrap",
        [(65536, 10), (4000000000, 13), (9, 2)],
    ),
    (
        """
long widen_mix(int a, unsigned int b, long c) {
    long wide = a * b;
    return wide + (a + c) / 3;
}
""",
        "widen_mix",
        [(-3, 5, 1000000000000), (100000, 100000, -9), (2, 2, 2)],
    ),
    (
        """
long to_ulong(int a) {
    unsigned int u = a;
    return u / 3 + u;
}
""",
        "to_ulong",
        [(-1,), (-2147483647,), (9,)],
    ),
    (
        """
int assign_value(int i) {
    char c;
    int r = (c = i);
    return r * 2 + c;
}
""",
        "assign_value",
        [(70000,), (-1,), (56,)],
    ),
    (
        """
int postfix_value(int x) {
    int y = x++;
    int z = x--;
    return y * 100 + z * 10 + x;
}
""",
        "postfix_value",
        [(3,), (-7,), (0,)],
    ),
    # -- char/short-heavy functions: register-promoted narrow locals, C's
    # -- promotion-then-truncate patterns, and narrow unsigned wraparound.
    (
        """
int char_acc(char *s, int n) {
    char acc = 0;
    for (int i = 0; i < n; i++) {
        acc += s[i];
    }
    return acc;
}
""",
        "char_acc",
        [([100, 100, 100], 3), ([-128, -1, 127], 3), ([], 0)],
    ),
    (
        """
int short_div(short a, short b) {
    short s = a + b;
    return s / 3;
}
""",
        "short_div",
        [(32767, 1), (-32768, -1), (100, 23)],
    ),
    (
        """
int uchar_wrap(int n) {
    unsigned char c = 250;
    for (int i = 0; i < n; i++) {
        c++;
    }
    return c;
}
""",
        "uchar_wrap",
        [(0,), (6,), (10,), (300,)],
    ),
    (
        """
int narrow_cmp(int x) {
    unsigned char u = x;
    char s = x;
    int n = 0;
    if (u == s) {
        n += 1;
    }
    if (u > 100) {
        n += 2;
    }
    if (s > 100) {
        n += 4;
    }
    return n;
}
""",
        "narrow_cmp",
        [(0,), (100,), (200,), (-56,)],
    ),
    (
        """
int short_shift(short h, int s) {
    short t = h << (s & 7);
    return t - (h >> 1);
}
""",
        "short_shift",
        [(1000, 6), (-32768, 1), (257, 7)],
    ),
    (
        """
int short_mul_trunc(short a, short b) {
    short p = a * b;
    return p;
}
""",
        "short_mul_trunc",
        [(300, 300), (-200, 180), (181, 181)],
    ),
    (
        """
void caesar(char *s, int k) {
    for (int i = 0; s[i] != 0; i++) {
        s[i] = (char)(s[i] + k);
    }
}
""",
        "caesar",
        [("abc", 3), ("xyz", 2), ("", 7)],
    ),
    (
        """
unsigned short ushort_hash(unsigned short h, int n) {
    for (int i = 0; i < n; i++) {
        h = h * 31 + 7;
    }
    return h;
}
""",
        "ushort_hash",
        [(0, 4), (65535, 3), (52, 8)],
    ),
    # -- scalar globals with nonzero initialisers: the backends must emit
    # -- real .data initialisers (zero-filled .comm would silently diverge).
    (
        """
int scale = 3;
long offset = -7;

long affine(int x) {
    return scale * x + offset;
}
""",
        "affine",
        [(0,), (10,), (-100,)],
    ),
    (
        """
unsigned char seed_byte = 200;

int bump_byte(int k) {
    seed_byte += k;
    return seed_byte;
}
""",
        "bump_byte",
        [(1,), (100,), (-5,)],
    ),
    # -- minimized fuzzer finds (python -m repro.testing.fuzz), kept as
    # -- regressions.  Each one diverged between the interpreter and the
    # -- compiled legs before the corresponding front-end fix.
    (
        # Shift results take the promoted LEFT operand's type: the outer <<
        # must wrap at 32 bits even though the count was an unsigned long.
        """
unsigned long shift_type(unsigned int p, unsigned long s) {
    return ((0 - p) >> s) << 1;
}
""",
        "shift_type",
        [(100, 0), (1, 1), (4294967295, 3)],
    ),
    (
        # ~(0 << v) is the int -1, so the % happens at signed 32 bits.
        """
unsigned int not_shift_mod(unsigned long v) {
    return ~(0 << v) % -2;
}
""",
        "not_shift_mod",
        [(0,), (3,)],
    ),
    (
        # A long global initialiser must not be truncated by the
        # interpreter's static typing of wide literals.
        """
long big_init = -2126999363038860482;

long read_big_init(int unused) {
    return big_init;
}
""",
        "read_big_init",
        [(0,)],
    ),
    (
        # The ternary converts both branches to the common type
        # (unsigned int here): c ? -2 : u is 4294967294.
        """
long pick_unsigned(int c) {
    unsigned int u = 7;
    return c ? -2 : u;
}
""",
        "pick_unsigned",
        [(1,), (0,)],
    ),
    (
        # The value of ++c/--c is the value stored back into c, wrapped to
        # char; at x = 127 the increment must yield -128, not 128.
        """
int prefix_char(int x) {
    char c = (char) x;
    int a = ++c;
    int b = --c;
    return a * 1000 + b * 10 + c;
}
""",
        "prefix_char",
        [(127,), (-128,), (0,)],
    ),
    (
        # Unary minus evaluates in the promoted operand type: -u on an
        # unsigned int is a 32-bit unsigned value, zero-extended to long.
        """
unsigned long neg_unsigned(unsigned int u) {
    return -u;
}
""",
        "neg_unsigned",
        [(1,), (0,), (4294967295,)],
    ),
    (
        # Local arrays must get full-size stack slots: with width-shrunk
        # scalar slots (PR 4), decaying the declared type here would hand
        # each array a pointer-sized slot and the element stores would
        # overrun into the neighbouring slot (code-review find).
        """
int local_array_slots(int n) {
    int a[4];
    long b[3];
    for (int i = 0; i < 4; i++) {
        a[i] = n + i;
    }
    for (int i = 0; i < 3; i++) {
        b[i] = 2 * i + a[i];
    }
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s += a[i];
    }
    for (int i = 0; i < 3; i++) {
        s += (int) b[i];
    }
    return s;
}
""",
        "local_array_slots",
        [(10,), (0,), (-5,)],
    ),
]

#: Signatures wider than the argument registers: more than six
#: integer-class or more than eight ``double`` parameters, so the caller
#: passes the overflow on the stack (SysV x86-64 has six integer and
#: eight FP argument registers, AAPCS64 eight of each).
WIDE_SIGNATURES = [
    (
        """
long wide_longs(long a, long b, long c, long d, long e, long f, long g) {
    return a + 2 * b + 3 * c + 4 * d + 5 * e + 6 * f + 7 * g;
}
""",
        "wide_longs",
        [(1, 2, 3, 4, 5, 6, 7), (-7, 6, -5, 4, -3, 2, -1000000000000)],
    ),
    (
        """
double wide_doubles(double a, double b, double c, double d, double e,
                    double f, double g, double h, double k) {
    return a + 2.0 * b + 3.0 * c + 4.0 * d + 5.0 * e + 6.0 * f + 7.0 * g
        + 8.0 * h + 9.0 * k;
}
""",
        "wide_doubles",
        [
            (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0),
            (-0.5, 0.25, 1e10, -3.0, 0.0, 2.5, -1.0, 7.75, 0.125),
        ],
    ),
    (
        """
int wide_total = 5;

long wide_mixed(int a, double x, long b, double y, int c, double z, long d,
                double u, int e, double v, long f, double w, int g,
                double p, double q, double r, int *out) {
    *out = a - b + c - d + e - f + g;
    wide_total = wide_total + (int) (x + 2.0 * y + 3.0 * z + 4.0 * u
        + 5.0 * v + 6.0 * w + 7.0 * p + 8.0 * q + 9.0 * r);
    return a + 10 * b + 100 * c + 1000 * d + 10000 * e + 100000 * f
        + 1000000 * g;
}
""",
        "wide_mixed",
        [
            (1, 1.0, 2, 2.0, 3, 3.0, 4, 4.0, 5, 5.0, 6, 6.0, 7, 7.0, 8.0, 9.0,
             [0]),
            (-9, 0.5, 8, -1.5, -7, 2.25, 6, 0.0, -5, 4.0, 4, -8.5, -3, 1.0, 1.0,
             -2.0, [41]),
        ],
    ),
]
