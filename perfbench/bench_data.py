"""Seeded fact table, the percentage queries the workloads send, and the
reference answers their results are checked against.

The fact table f(store, region, dept, dweek, month, amt) follows the paper's
sales example: store popularity is skewed, region is a roll-up of store, and
amt is an INT64 measure, so every Vpct/Hpct fraction is a quotient of two
exact integer sums and the reference can be compared to the last bit.
"""

import random

STORES = 64
REGIONS = 4
DEPTS = 16
COLUMNS = ("store", "region", "dept", "dweek", "month", "amt")

# Grouping values of one finest-level cell (store, dept, dweek, month).
VALUE = {
    "store": lambda cell: cell[0],
    "region": lambda cell: cell[0] % REGIONS,
    "dept": lambda cell: cell[1],
    "dweek": lambda cell: cell[2],
    "month": lambda cell: cell[3],
}


class Template:
    """A percentage query shape. Vpct: `group` are the GROUP BY columns and
    `by` the BY columns (a subset); totals group by the rest. Hpct: one row
    per `group` value, one column per value of the single `by` column."""

    def __init__(self, name, kind, group, by):
        self.name = name
        self.kind = kind
        self.group = group
        self.by = by
        cols = ", ".join(group)
        if kind == "vpct":
            arg = "amt BY " + ", ".join(by) if by else "amt"
            self.sql = ("SELECT %s, Vpct(%s) AS pct FROM f{where} GROUP BY %s"
                        % (cols, arg, cols))
        else:
            self.sql = ("SELECT %s, Hpct(amt BY %s) FROM f{where} GROUP BY %s"
                        % (cols, by[0], cols))

    def query(self, max_month):
        where = "" if max_month >= 12 else " WHERE month <= %d" % max_month
        return self.sql.format(where=where)


TEMPLATES = [
    Template("store_in_region", "vpct", ("region", "store"), ("store",)),
    Template("region_by_weekday", "hpct", ("region",), ("dweek",)),
    Template("weekday_in_store", "vpct", ("store", "dweek"), ("dweek",)),
    Template("weekday_share", "vpct", ("dweek",), ()),
    Template("dept_by_month", "hpct", ("dept",), ("month",)),
    Template("dept_in_store", "vpct", ("store", "dept"), ("dept",)),
]
# Dashboard panels over one fact table whose finest grouping level is
# shared: (store, dweek) answers all four.
DASHBOARD = TEMPLATES[:4]


def generate(seed, rows):
    """Returns (csv text, finest-level sums {(store, dept, dweek, month): amt})."""
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** 0.7 for i in range(STORES)]
    rng.shuffle(weights)
    store = rng.choices(range(STORES), weights, k=rows)
    dept = rng.choices(range(DEPTS), k=rows)
    dweek = rng.choices(range(1, 8), k=rows)
    month = rng.choices(range(1, 13), k=rows)
    amt = rng.choices(range(1, 1000), k=rows)
    lines = [",".join(COLUMNS)]
    finest = {}
    for s, d, w, m, a in zip(store, dept, dweek, month, amt):
        lines.append("%d,%d,%d,%d,%d,%d" % (s, s % REGIONS, d, w, m, a))
        cell = (s, d, w, m)
        finest[cell] = finest.get(cell, 0) + a
    lines.append("")
    return "\n".join(lines), finest


class Reference:
    """Exact answers for every (template, max_month) query, computed lazily
    from the finest-level sums."""

    def __init__(self, finest):
        self.finest = finest
        self.cubes = {}
        self.answers = {}

    def _cube(self, template):
        # {(group values + by values, month): sum}; month last so a WHERE on
        # it filters without rescanning the finest cells.
        if template.name not in self.cubes:
            cols = template.group + (template.by if template.kind == "hpct" else ())
            getters = [VALUE[c] for c in cols]
            cube = {}
            for cell, amt in self.finest.items():
                key = (tuple(g(cell) for g in getters), cell[3])
                cube[key] = cube.get(key, 0) + amt
            self.cubes[template.name] = cube
        return self.cubes[template.name]

    def answer(self, template, max_month):
        """Vpct: {group tuple: fraction}. Hpct: {group tuple: {column: fraction}}."""
        key = (template.name, max_month)
        if key in self.answers:
            return self.answers[key]
        sums = {}
        for (values, month), amt in self._cube(template).items():
            if month <= max_month:
                sums[values] = sums.get(values, 0) + amt
        ngroup = len(template.group)
        if template.kind == "vpct":
            # Totals group by the columns left of BY; no BY means one
            # grand total.
            keep = [i for i, c in enumerate(template.group)
                    if template.by and c not in template.by]
            totals = {}
            for values, amt in sums.items():
                parent = tuple(values[i] for i in keep)
                totals[parent] = totals.get(parent, 0) + amt
            result = {values: amt / totals[tuple(values[i] for i in keep)]
                      for values, amt in sums.items()}
        else:
            totals = {}
            for values, amt in sums.items():
                totals[values[:ngroup]] = totals.get(values[:ngroup], 0) + amt
            result = {}
            for values, amt in sums.items():
                group = values[:ngroup]
                column = "%s=%d" % (template.by[0], values[ngroup])
                result.setdefault(group, {})[column] = amt / totals[group]
        self.answers[key] = result
        return result


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def check(template, max_month, csv_text, reference):
    """Compares one CSV result to the reference; returns an error string, or
    None when every group and every fraction matches."""
    want = reference.answer(template, max_month)
    lines = csv_text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    ngroup = len(template.group)
    if tuple(header[:ngroup]) != template.group:
        return "unexpected header %r" % lines[0]
    if len(lines) - 1 != len(want):
        return "%d rows, expected %d" % (len(lines) - 1, len(want))
    for line in lines[1:]:
        fields = line.split(",")
        try:
            group = tuple(int(v) for v in fields[:ngroup])
        except ValueError:
            return "bad group key in %r" % line
        if group not in want:
            return "unexpected group %r" % (group,)
        if template.kind == "vpct":
            if len(fields) != ngroup + 1 or not fields[ngroup]:
                return "bad row %r" % line
            if not _close(float(fields[ngroup]), want[group]):
                return "group %r: %s, expected %r" % (group, fields[ngroup],
                                                      want[group])
            continue
        cells = want[group]
        for name, value in zip(header[ngroup:], fields[ngroup:]):
            expected = cells.get(name)
            if expected is None:
                # A pivot column this group has no rows for: NULL or zero.
                if value not in ("", "0"):
                    return "group %r column %s: %s, expected empty" % (
                        group, name, value)
            elif not value or not _close(float(value), expected):
                return "group %r column %s: %s, expected %r" % (
                    group, name, value, expected)
        if not set(cells) <= set(header[ngroup:]):
            return "missing pivot columns in %r" % lines[0]
    return None
