"""Builders for synthetic smali classes, apps, and corpora used by the tests.

Everything here is deterministic given its inputs, so expected values frozen
in the tests stay valid across runs.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from storescan.smali_ir import (
    AppModel,
    ClassDef,
    Invoke,
    MethodDef,
    MethodRef,
    StringConst,
    _escape_string,
)

# Rotating pools. Keyword strings each hit exactly one default keyword and
# never start with a hardcoded path prefix; sdcard strings hit a hardcoded
# prefix and no keyword; safe strings hit nothing.
KEYWORD_STRINGS = [
    "/user_log",
    "user.log",
    "/cache/",
    "history.bin",
    "/pics/meta",
    "tmp.dat",
    "/acct/account",
    "uid.txt",
    "/shared/files",
    "backup.data",
    "temp/notes.ini",
]
SDCARD_STRINGS = [
    "/sdcard",
    "/sdcard/alpha",
    "/sdcard0/bravo",
    "/sdcard1/charlie/delta",
    "/sdcard/echo.bin",
]
SAFE_STRINGS = [
    "/alpha/bravo",
    "charlie.bin",
    "delta/echo.png",
    "https://example.com/foxtrot",
    "golf hotel.cfg",
    "standalone",
]

PATH_API_CALLS = [
    ("invoke-static {}", "Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;"),
    ("invoke-static {v0}", "Landroid/os/Environment;", "getExternalStoragePublicDirectory", "(Ljava/lang/String;)Ljava/io/File;"),
    ("invoke-virtual {p0, v0}", "Landroid/content/Context;", "getExternalFilesDir", "(Ljava/lang/String;)Ljava/io/File;"),
    ("invoke-virtual {p0}", "Landroid/content/Context;", "getExternalFilesDirs", "(Ljava/lang/String;)[Ljava/io/File;"),
    ("invoke-virtual {p0}", "Landroid/content/Context;", "getExternalCacheDir", "()Ljava/io/File;"),
    ("invoke-virtual {p0}", "Landroid/content/Context;", "getExternalCacheDirs", "()[Ljava/io/File;"),
]

SINK_CALLS = [
    [
        "    new-instance v1, Ljava/io/FileOutputStream;",
        "    invoke-direct {v1, v0}, Ljava/io/FileOutputStream;-><init>(Ljava/lang/String;)V",
    ],
    ["    invoke-virtual {v2}, Ljava/io/File;->mkdir()Z"],
    ["    invoke-virtual {v2}, Ljava/io/File;->mkdirs()Z"],
]

FILLER_LINES = [
    "    .line 42",
    "    nop",
    "    move-result-object v0",
    "    const/4 v3, 0x1",
    "    if-eqz v3, :cond_0",
    "    :cond_0",
    "    # trailing comment",
]


def const_string_line(value: str, reg: str = "v0") -> str:
    return f'    const-string {reg}, "{value}"'


def invoke_line(kind: str, cls: str, name: str, proto: str, regs: str = "{}") -> str:
    return f"    invoke-{kind} {regs}, {cls}->{name}{proto}"


def method_text(name: str, proto: str = "()V", flags: str = "public static",
                body: list[str] | tuple[str, ...] = ()) -> str:
    header = f".method {flags} {name}{proto}" if flags else f".method {name}{proto}"
    return "\n".join([header, *body, ".end method"])


def class_text(descriptor: str, methods: list[str] | tuple[str, ...] = (),
               metadata: list[str] | tuple[str, ...] = (),
               super_descriptor: str = "Ljava/lang/Object;") -> str:
    parts = [f".class public {descriptor}", f".super {super_descriptor}", *metadata]
    for m in methods:
        parts.append("")
        parts.append(m)
    return "\n".join(parts) + "\n"


class Fixture(NamedTuple):
    text: str
    invokes: int
    strings: int
    new_instances: int


def _handcrafted_fixtures() -> list[Fixture]:
    fixtures = [
        Fixture(".class Lfix/Empty;\n.super Ljava/lang/Object;\n", 0, 0, 0),
        Fixture(
            class_text(
                "Lfix/AllKinds;",
                methods=[
                    method_text(
                        "kinds",
                        body=[
                            "    .locals 4",
                            invoke_line("virtual", "Lfix/AllKinds;", "a", "()V", "{p0}"),
                            invoke_line("super", "Ljava/lang/Object;", "toString", "()Ljava/lang/String;", "{p0}"),
                            invoke_line("direct", "Lfix/AllKinds;", "<init>", "()V", "{p0}"),
                            invoke_line("static", "Lfix/AllKinds;", "b", "(I)V", "{v0}"),
                            invoke_line("interface", "Ljava/util/List;", "size", "()I", "{v1}"),
                            "    invoke-virtual/range {v0 .. v3}, Lfix/AllKinds;->c(III)V",
                        ],
                    )
                ],
            ),
            6,
            0,
            0,
        ),
        Fixture(
            class_text(
                "Lfix/Strings;",
                methods=[
                    method_text(
                        "s",
                        body=[
                            const_string_line("plain"),
                            const_string_line("esc\\nline"),
                            const_string_line('quote\\"q'),
                            const_string_line("back\\\\slash"),
                            const_string_line("uni\\u0041de"),
                            '    const-string/jumbo v9, "jumbo value"',
                            const_string_line("café 中文"),
                        ],
                    )
                ],
            ),
            0,
            7,
            0,
        ),
        Fixture(
            class_text(
                "Lfix/News;",
                methods=[
                    method_text(
                        "n",
                        body=[
                            "    new-instance v0, Ljava/io/File;",
                            "    new-instance v1, Lfix/News$Inner;",
                        ],
                    )
                ],
                metadata=[".source \"News.java\""],
            ),
            0,
            0,
            2,
        ),
        Fixture(
            class_text(
                "Lfix/Meta;",
                methods=[method_text("<init>", flags="public constructor", body=["    return-void"])],
                metadata=[
                    ".implements Ljava/lang/Runnable;",
                    "# class comment",
                    ".field private count:I",
                    ".annotation system Ldalvik/annotation/MemberClasses;",
                    "    value = { Lfix/Meta$X; }",
                    ".end annotation",
                ],
            ),
            0,
            0,
            0,
        ),
        Fixture(
            class_text(
                "Lfix/Abstract;",
                methods=[method_text("todo", proto="(I)Ljava/lang/String;", flags="public abstract", body=[])],
            ),
            0,
            0,
            0,
        ),
        Fixture(
            class_text(
                "Lfix/Opaques;",
                methods=[
                    method_text(
                        "op",
                        body=[
                            "    .locals 2",
                            "",
                            "    :goto_0",
                            "    add-int/2addr v0, v1",
                            "    # body comment",
                            "    goto :goto_0",
                            "    invoke-polymorphic {p1, v0, v1}, Ljava/lang/invoke/MethodHandle;->invoke([Ljava/lang/Object;)Ljava/lang/Object;, (II)V",
                        ],
                    )
                ],
            ),
            0,  # invoke-polymorphic is outside the interpreted subset
            0,
            0,
        ),
        Fixture(
            class_text(
                "Lfix/NoFlags;",
                methods=[method_text("bare", flags="", body=["    return-void"])],
            ),
            0,
            0,
            0,
        ),
    ]
    return fixtures


def fixture_classes() -> list[Fixture]:
    """At least 50 classes covering every interpreted family plus opaque lines."""
    fixtures = _handcrafted_fixtures()
    kinds = ["virtual", "super", "direct", "static", "interface"]
    for i in range(48):
        body = ["    .locals 5"]
        invokes = strings = news = 0
        body.append(FILLER_LINES[i % len(FILLER_LINES)])
        for j in range(1 + i % 3):
            body.append(invoke_line(kinds[(i + j) % 5], f"Lgen/C{i};", f"callee{j}", "()V", "{v0}"))
            invokes += 1
        if i % 2 == 0:
            body.append(const_string_line(KEYWORD_STRINGS[i % len(KEYWORD_STRINGS)]))
            strings += 1
        if i % 3 == 0:
            body.append(const_string_line(SDCARD_STRINGS[i % len(SDCARD_STRINGS)], reg="v1"))
            strings += 1
        if i % 4 == 0:
            body.append(f"    new-instance v2, Lgen/C{i}$Nested;")
            news += 1
        body.append("    return-void")
        methods = [method_text("run", body=body)]
        if i % 5 == 0:
            methods.append(method_text("extra", proto="(I)I", flags="private", body=["    .locals 1"]))
        text = class_text(f"Lgen/C{i};", methods=methods, metadata=[f".source \"C{i}.java\""])
        fixtures.append(Fixture(text, invokes, strings, news))
    return fixtures


# ---------------------------------------------------------------------------
# Random abstract instances (for oracle comparisons), built as IR directly.

class RandomInstance(NamedTuple):
    app: AppModel
    adjacency: dict[int, list[int]]  # planted edges over method indices
    kw_nodes: set[int]
    path_nodes: set[int]
    sink_nodes: set[int]


def random_instance(rng: random.Random, max_methods: int = 30) -> RandomInstance:
    n = rng.randint(1, max_methods)
    keys = [(f"Lrand/C{j % 3};", f"m{j}", "()V") for j in range(n)]
    adjacency: dict[int, list[int]] = {j: [] for j in range(n)}
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if b not in adjacency[a]:
            adjacency[a].append(b)
    kw_nodes = {j for j in range(n) if rng.random() < 0.2}
    path_nodes = {j for j in range(n) if rng.random() < 0.2}
    sink_nodes = {j for j in range(n) if rng.random() < 0.2}

    classes: dict[str, list[MethodDef]] = {}
    for j, (owner, name, proto) in enumerate(keys):
        body: list[Invoke | StringConst] = []
        if j in kw_nodes:
            body.append(StringConst(rng.choice(KEYWORD_STRINGS)))
        if j in path_nodes:
            if rng.random() < 0.5:
                body.append(
                    Invoke("static", MethodRef("Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;"))
                )
            else:
                body.append(StringConst(rng.choice(SDCARD_STRINGS)))
        elif rng.random() < 0.3:
            body.append(StringConst(rng.choice(SAFE_STRINGS)))
        if j in sink_nodes:
            body.append(Invoke("direct", MethodRef("Ljava/io/FileOutputStream;", "<init>", "(Ljava/lang/String;)V")))
        for callee in adjacency[j]:
            co, cn, cp = keys[callee]
            body.append(Invoke("static", MethodRef(co, cn, cp)))
        classes.setdefault(owner, []).append(MethodDef(MethodRef(owner, name, proto), body))

    class_defs = [ClassDef(owner, "Ljava/lang/Object;", methods) for owner, methods in sorted(classes.items())]
    return RandomInstance(AppModel("rand", class_defs), adjacency, kw_nodes, path_nodes, sink_nodes)


# ---------------------------------------------------------------------------
# Planted corpus with by-construction ground truth.

class PlantedApp(NamedTuple):
    app_id: str
    files: dict[str, str]  # relative path -> smali text
    vulnerable: bool


# (keyword distance, path distance, sink distance, cyclic). Distances 0..2
# each appear in every position across the rotation.
_VULN_PATTERNS = [
    (0, 0, 0, False),
    (0, 1, 2, False),
    (2, 1, 0, False),
    (1, 2, 0, False),
    (0, 2, 1, False),
    (2, 2, 2, False),
    (1, 1, 1, True),
    (0, 1, 2, True),
    (2, 0, 2, False),
    (0, 0, 2, True),
]

_CLEAN_KINDS = [
    "no_sink",
    "no_keyword",
    "no_path",
    "beyond_depth",
    "disconnected",
    "no_keyword_cyclic",
]


def _mark_lines(i: int, category: str) -> list[str]:
    if category == "keyword":
        return [const_string_line(KEYWORD_STRINGS[i % len(KEYWORD_STRINGS)])]
    if category == "path":
        if i % 2 == 0:
            call, cls, name, proto = PATH_API_CALLS[i % len(PATH_API_CALLS)]
            return [f"    {call}, {cls}->{name}{proto}"]
        return [const_string_line(SDCARD_STRINGS[i % len(SDCARD_STRINGS)], reg="v1")]
    return list(SINK_CALLS[i % len(SINK_CALLS)])


def _chain_app(app_id: str, pkg: str, i: int, kw_d: int | None, path_d: int | None,
               sink_d: int | None, cyclic: bool, chain_len: int | None = None) -> dict[str, str]:
    """A linear call chain step0 -> step1 -> ... with marks planted per distance."""
    distances = [d for d in (kw_d, path_d, sink_d) if d is not None]
    length = chain_len if chain_len is not None else max(distances)
    bodies: dict[int, list[str]] = {j: ["    .locals 4"] for j in range(length + 1)}
    for j in range(length + 1):
        bodies[j].append(FILLER_LINES[(i + j) % len(FILLER_LINES)])
    if kw_d is not None:
        bodies[kw_d].extend(_mark_lines(i, "keyword"))
    if path_d is not None:
        bodies[path_d].extend(_mark_lines(i, "path"))
    if sink_d is not None:
        bodies[sink_d].extend(_mark_lines(i, "sink"))
    names = ["run"] + [f"step{j}" for j in range(1, length + 1)]
    owners = [f"{pkg}/Main;"] + [f"{pkg}/Help;"] * length
    for j in range(length):
        bodies[j].append(invoke_line("static", owners[j + 1], names[j + 1], "()V"))
    if cyclic and length >= 1:
        bodies[length].append(invoke_line("static", owners[0], names[0], "()V"))
    for j in range(length + 1):
        bodies[j].append("    return-void")

    main = class_text(owners[0], methods=[method_text(names[0], body=bodies[0])])
    files = {"Main.smali": main}
    if length >= 1:
        helpers = [method_text(names[j], body=bodies[j]) for j in range(1, length + 1)]
        files["Help.smali"] = class_text(owners[1], methods=helpers)
    return files


def _vulnerable_app(i: int) -> PlantedApp:
    kw_d, path_d, sink_d, cyclic = _VULN_PATTERNS[i % len(_VULN_PATTERNS)]
    app_id = f"vuln{i:03d}"
    files = _chain_app(app_id, f"Lv{i}", i, kw_d, path_d, sink_d, cyclic)
    return PlantedApp(app_id, files, True)


def _clean_app(i: int) -> PlantedApp:
    kind = _CLEAN_KINDS[i % len(_CLEAN_KINDS)]
    app_id = f"clean{i:03d}"
    pkg = f"Lc{i}"
    if kind == "no_sink":
        files = _chain_app(app_id, pkg, i, kw_d=0, path_d=1, sink_d=None, cyclic=False, chain_len=1)
    elif kind == "no_keyword":
        files = _chain_app(app_id, pkg, i, kw_d=None, path_d=0, sink_d=1, cyclic=False, chain_len=1)
    elif kind == "no_path":
        files = _chain_app(app_id, pkg, i, kw_d=0, path_d=None, sink_d=2, cyclic=False, chain_len=2)
    elif kind == "beyond_depth":
        # Marks complete only at distance 3, outside depth=3's reach of 2.
        files = _chain_app(app_id, pkg, i, kw_d=0, path_d=0, sink_d=3, cyclic=False, chain_len=3)
    elif kind == "disconnected":
        part_a = _chain_app(app_id, pkg + "a", i, kw_d=0, path_d=1, sink_d=None, cyclic=False, chain_len=1)
        part_b = _chain_app(app_id, pkg + "b", i, kw_d=None, path_d=None, sink_d=1, cyclic=False, chain_len=1)
        files = {"a/" + k: v for k, v in part_a.items()}
        files.update({"b/" + k: v for k, v in part_b.items()})
    else:  # no_keyword_cyclic
        files = _chain_app(app_id, pkg, i, kw_d=None, path_d=0, sink_d=1, cyclic=True, chain_len=1)
    return PlantedApp(app_id, files, False)


def planted_corpus(n_vulnerable: int = 100, n_clean: int = 100) -> list[PlantedApp]:
    apps = [_vulnerable_app(i) for i in range(n_vulnerable)]
    apps.extend(_clean_app(i) for i in range(n_clean))
    return apps


def write_corpus(root, apps: list[PlantedApp]) -> None:
    for app in apps:
        for rel, text in app.files.items():
            path = root / app.app_id / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def _render_instruction(ins: Invoke | StringConst) -> str:
    if isinstance(ins, Invoke):
        return f"    invoke-{ins.kind} {{}}, {ins.target}"
    return f'    const-string v0, "{_escape_string(ins.value)}"'


def render_class(cls: ClassDef) -> str:
    """Emit smali text whose re-parse is structurally identical to ``cls``. Each
    instruction is written from its structure; the class is ``public``, each
    method ``public static`` with ``.locals 3``."""
    parts = [f".class public {cls.descriptor}"]
    if cls.super_descriptor:
        parts.append(f".super {cls.super_descriptor}")
    for m in cls.methods:
        parts.append("")
        parts.append(f".method public static {m.key.name}{m.key.proto}")
        parts.append("    .locals 3")
        parts.extend(_render_instruction(ins) for ins in m.body)
        parts.append(".end method")
    return "\n".join(parts) + "\n"
