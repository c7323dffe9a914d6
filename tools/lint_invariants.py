#!/usr/bin/env python3
"""Project-invariant linter: mechanically enforces the repo's bespoke
concurrency/determinism contracts that -Wall and clang-tidy cannot see.

Rules (each is a function below; `--self-test` seeds a violation of every rule
in a temp tree and asserts the linter catches it):

  R1 isa-isolation      SIMD intrinsic headers (immintrin.h & friends) may be
                        included only by src/nn/kernels_avx2.cc, and the
                        -mavx2/-mfma flags may appear in CMakeLists.txt only
                        on lines that target that TU (or the compiler-probe
                        line). Anything else silently breaks the runtime
                        dispatch contract: a stray intrinsic in a generic TU
                        executes AVX2 on hosts CPUID said don't have it.

  R2 determinism-sources  src/nn/, src/core/, and src/search/ must not use
                        rand(), std::random_device, or std::unordered_*
                        containers. The data plane's bitwise thread-count/
                        batch-size invariance (threading_test, kernels_test)
                        dies the moment an accumulation iterates a hash
                        container or a nondeterministic source feeds the
                        forward path — and the tuning tier's same-seed ⇒
                        same-SearchCurve contract (search_test, the
                        bench_tuning parity gate) dies the same way if a
                        search driver's dedup map or rng stream is
                        nondeterministic; seeded cdmpp::Rng is the only
                        sanctioned randomness.

  R3 workspace-threading  Every ForwardInference *definition* must take a
                        Workspace* parameter: inference writes into the
                        caller's arena, and no by-value overload that builds
                        a scratch Workspace and copies its result out is
                        left. A ForwardInference that heap-allocates its
                        output breaks the zero-alloc warm path contract
                        (tests/dataplane_test.cc). Under src/nn/, no
                        by-value `Matrix <Class>::Forward(` or
                        `::Backward(` definition either: a layer is trained
                        through its row primitives and run through
                        ForwardInference, and a whole-batch wrapper that
                        copies its input into the layer is a third entry
                        point to keep in step with them.

  R4 zero-alloc-fork    ParallelFor / ParallelForWithScratch / RunPanels chunk
                        bodies must not contain allocation tokens (new,
                        malloc, make_unique/shared, push_back, emplace_back,
                        .resize(, Matrix::Resize(, .reserve(). Chunk bodies
                        run concurrently on
                        pool workers: an allocation there is both a warm-path
                        heap hit (dataplane_test) and a malloc-lock
                        serialization point. Arena bumps (NewMatrix/NewI16 on
                        leased scratch) are the sanctioned alternative. The
                        rule also scans the work-stealing scheduler itself
                        (src/support/parallel_for.{cc,h}): every *Drain*/
                        *Steal* function body — the per-chunk claim loop every
                        stolen chunk runs through — and every task-descriptor
                        lambda (the type-erasure trampoline and friends) must
                        be token-free, or the scheduler would put a heap hit
                        on every chunk of every region. The training step
                        (CdmppPredictor::RunTraining) is scanned the same way:
                        RunSampleShards is a fork call, and the row primitives
                        and gradient/optimizer kernels its shard and task
                        bodies call (every *Rows* function, the layers' shared
                        ForwardRowsInto bodies included, CacheDest, the
                        Build*MatrixInto featurizers and the positional-
                        encoding lookup they call per leaf
                        (PositionalEncodingTable::AddTo), RunGradTask,
                        AddColumnSums, AdamUpdate in the training sources)
                        must be token-free too: shard scratch comes
                        from the region's leases or from caches sized before
                        the fork.
                        So is the serving forward: layers no longer fork per
                        op (attention's per-chunk scratch leases are gone), and
                        CdmppPredictor::PredictBatchedImpl runs each wave as
                        one ParallelForWithScratch region over row shards.
                        Its shard body is scanned as a chunk body, and every
                        function a shard calls (ForwardShard, every
                        *ForwardInference, the layers' shared ForwardRowsInto
                        bodies and ArenaDest, AttentionContextRows, AddRows,
                        Linear's int8 row helpers QuantizeRows and
                        ForwardQuantizedRowsInto, SoftmaxRows,
                        QuantizeRowsImpl, the Pack*Rows* packers, the
                        featurizers and their PositionalEncodingTable::AddTo)
                        must be token-free: its tensors come from the shard's
                        arena. The ForwardRowsInto bodies (Linear's int8
                        branch included), AttentionContextRows, the
                        featurizers and AddTo run in both regions, so both
                        scopes scan them.
                        Scope: the zero-allocation contract covers the warm
                        serving forward and the training step, the two
                        regions above whose callees are listed. Other forks
                        are checked only in their own chunk body text, not in
                        the functions they call. BuildDataset's set-up fork
                        over programs is one: its body is token-free, but
                        GenerateProgram, which it calls, builds a heap tree
                        for each program, and ExtractCompactAst allocates the
                        AST it returns. Those allocations are outside the
                        contract; the fork runs once per dataset build, not
                        on a warm path. The search drivers' fork over each
                        round's population (ExtractPopulation in
                        src/search/population.cc) is another: its body only
                        assigns each slot, but GenerateProgram and
                        ExtractCompactAst allocate per candidate. The
                        search runs on the tuning client, ahead of the
                        scoring call, not inside the serving forward.

Exit status: 0 clean, 1 violations found (printed as path:line: [rule] msg),
2 self-test failure. Run from anywhere; the repo root is located relative to
this file. CI runs both modes and uploads the report artifact.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INTRINSIC_HEADERS = re.compile(
    r'#\s*include\s*[<"](?:immintrin|x86intrin|avxintrin|avx2intrin|emmintrin|'
    r'xmmintrin|smmintrin|tmmintrin|pmmintrin|nmmintrin|wmmintrin)\.h[>"]')
ISA_ALLOWED_FILE = os.path.join("src", "nn", "kernels_avx2.cc")

DETERMINISM_BANNED = [
    (re.compile(r'\brand\s*\('), "rand() feeds nondeterminism into the data plane; "
                                 "use the seeded cdmpp::Rng"),
    (re.compile(r'\brandom_device\b'), "std::random_device is nondeterministic; "
                                       "use the seeded cdmpp::Rng"),
    (re.compile(r'\bunordered_(map|set|multimap|multiset)\b'),
     "hash-container iteration order is unspecified and would feed accumulation; "
     "use std::map/std::vector (bitwise-invariance contract)"),
]

ALLOC_TOKENS = [
    (re.compile(r'\bnew\b'), "new"),
    (re.compile(r'\b(?:m|c|re)alloc\s*\('), "malloc/calloc/realloc"),
    (re.compile(r'\bmake_(?:unique|shared)\b'), "make_unique/make_shared"),
    (re.compile(r'(?:\.|->)\s*push_back\s*\('), "push_back("),
    (re.compile(r'(?:\.|->)\s*emplace_back\s*\('), "emplace_back("),
    (re.compile(r'(?:\.|->)\s*[rR]esize\s*\('), "resize(/Resize("),
    (re.compile(r'(?:\.|->)\s*reserve\s*\('), "reserve("),
]

FORK_CALL = re.compile(
    r'\b(ParallelFor|ParallelForWithScratch|RunPanels|RunSampleShards)\s*\(')


def strip_comments_and_strings(text):
    """Replaces comment/string contents with spaces, preserving offsets and
    newlines so line numbers stay addressable."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            j = text.find('\n', i)
            j = n if j == -1 else j
            out.append(' ' * (j - i))
            i = j
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i:j + 2]
            out.append(''.join(ch if ch == '\n' else ' ' for ch in chunk))
            i = j + 2
        elif c in '"\'':
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == '\\' else 1
            out.append(quote + ' ' * (j - i - 1) + (quote if j < n else ''))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def line_of(text, pos):
    return text.count('\n', 0, pos) + 1


def match_bracket(text, open_pos, open_ch, close_ch):
    """Index one past the bracket matching text[open_pos]; -1 if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def iter_source_files(root, subdirs, exts=(".cc", ".h", ".cpp")):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# R1: ISA isolation.
# ---------------------------------------------------------------------------
def check_isa_isolation(root):
    findings = []
    allowed = ISA_ALLOWED_FILE.replace(os.sep, "/")
    for path in iter_source_files(root, ["src", "tests", "bench", "examples"]):
        rel = relpath(root, path)
        if rel == allowed:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            for lineno, line in enumerate(f, 1):
                if INTRINSIC_HEADERS.search(line):
                    findings.append((rel, lineno, "isa-isolation",
                                     "SIMD intrinsic header outside %s breaks the "
                                     "runtime-dispatch portability contract" % allowed))
    cmake = os.path.join(root, "CMakeLists.txt")
    if os.path.exists(cmake):
        with open(cmake, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
        prev = ""
        for lineno, line in enumerate(lines, 1):
            stripped = line.strip()
            if stripped.startswith("#") or stripped.startswith("message("):
                continue  # comments and status messages may mention the flags
            if "-mavx2" in line or "-mfma" in line:
                # A flag line is fine when it (or the continuation's opening
                # line) names the isolated TU, or it is the compiler probe.
                context = prev + line
                if ("kernels_avx2" not in context and
                        "check_cxx_compiler_flag" not in context):
                    findings.append(("CMakeLists.txt", lineno, "isa-isolation",
                                     "-mavx2/-mfma may only be applied to the "
                                     "kernels_avx2.cc TU (or the compiler probe)"))
            if stripped:
                prev = line
    return findings


# ---------------------------------------------------------------------------
# R2: determinism sources.
# ---------------------------------------------------------------------------
def check_determinism_sources(root):
    findings = []
    for path in iter_source_files(root, [os.path.join("src", "nn"),
                                         os.path.join("src", "core"),
                                         os.path.join("src", "search")]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.split('\n'), 1):
            for pattern, msg in DETERMINISM_BANNED:
                if pattern.search(line):
                    findings.append((rel, lineno, "determinism-sources", msg))
    return findings


# ---------------------------------------------------------------------------
# R3: ForwardInference threads a Workspace.
# ---------------------------------------------------------------------------
def definition_params(text, m):
    """For a match ending at a '(', returns the parameter text when the
    parameter list is followed (past const/noexcept/...) by '{', i.e. the
    match is a definition; None for a declaration or a call site."""
    params_end = match_bracket(text, m.end() - 1, '(', ')')
    if params_end == -1:
        return None
    tail = text[params_end:]
    tail_head = re.match(r'\s*(?:const|noexcept|override|final|\s)*', tail)
    if tail[tail_head.end():tail_head.end() + 1] != '{':
        return None
    return text[m.end():params_end - 1]


def check_workspace_threading(root):
    findings = []
    nn_dir = os.path.join("src", "nn")
    for path in iter_source_files(root, [nn_dir, os.path.join("src", "core")],
                                  exts=(".cc",)):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for m in re.finditer(r'\bForwardInference\s*\(', text):
            params = definition_params(text, m)
            if params is not None and not re.search(r'\bWorkspace\s*\*', params):
                findings.append((rel, line_of(text, m.start()), "workspace-threading",
                                 "ForwardInference definition does not take a "
                                 "Workspace*: its output would heap-allocate "
                                 "instead of landing in the caller's arena"))
        if not rel.startswith(nn_dir + os.sep):
            continue
        for m in re.finditer(r'\bMatrix\s+\w+::(Forward|Backward)\s*\(', text):
            if definition_params(text, m) is not None:
                findings.append((rel, line_of(text, m.start()), "workspace-threading",
                                 "by-value whole-batch %s definition: train the "
                                 "layer through its row primitives and run it "
                                 "through ForwardInference" % m.group(1)))
    return findings


# ---------------------------------------------------------------------------
# R4: no allocation tokens in fork chunk bodies.
# ---------------------------------------------------------------------------
def file_scope_lambdas(text):
    """Maps name -> body text for every `auto name = [...](...) {...}`."""
    lambdas = {}
    for m in re.finditer(r'\bauto\s+(\w+)\s*=\s*\[', text):
        cap_end = match_bracket(text, m.end() - 1, '[', ']')
        if cap_end == -1 or cap_end >= len(text) or text[cap_end] != '(':
            continue
        par_end = match_bracket(text, cap_end, '(', ')')
        if par_end == -1:
            continue
        brace = text.find('{', par_end)
        if brace == -1 or text[par_end:brace].strip():
            continue
        body_end = match_bracket(text, brace, '{', '}')
        if body_end != -1:
            lambdas[m.group(1)] = text[brace:body_end]
    return lambdas


def chunk_bodies_at(text, call_match, lambdas):
    """The chunk body text reachable from one fork call site: the inline
    lambda argument (if any) or the named-lambda final argument, plus the
    bodies of file-scope lambdas invoked from there (transitively)."""
    call_end = match_bracket(text, call_match.end() - 1, '(', ')')
    if call_end == -1:
        return []
    args = text[call_match.end():call_end - 1]
    lb = args.find('[')
    # Skip the primitive's own definition/declaration (parameter lists). Only
    # the text before an inline lambda is a candidate parameter list: a chunk
    # lambda whose own parameters read `int64_t begin` is a call site.
    head = args if lb == -1 else args[:lb]
    if re.search(r'\bint64_t\s+begin\b|&&\s*fn\b|&&\s*panel\b', head):
        return []
    bodies = []
    if lb != -1:
        # Inline lambda: brace-matched body after its parameter list.
        abs_lb = call_match.end() + lb
        cap_end = match_bracket(text, abs_lb, '[', ']')
        if cap_end != -1:
            brace = text.find('{', cap_end)
            if brace != -1:
                body_end = match_bracket(text, brace, '{', '}')
                if body_end != -1:
                    bodies.append((brace, text[brace:body_end]))
    else:
        last_arg = args.rsplit(',', 1)[-1].strip()
        if last_arg in lambdas:
            pos = text.find(lambdas[last_arg])
            bodies.append((pos, lambdas[last_arg]))
    # Transitive closure over named lambdas called from a chunk body.
    seen = {name for _, body in bodies for name in ()}
    frontier = list(bodies)
    while frontier:
        _, body = frontier.pop()
        for name, lam_body in lambdas.items():
            if name in seen:
                continue
            if re.search(r'\b%s\s*\(' % re.escape(name), body):
                seen.add(name)
                entry = (text.find(lam_body), lam_body)
                bodies.append(entry)
                frontier.append(entry)
    return bodies


# The scheduler's own hot paths: files holding the stealing scheduler, the
# function-name shape of its per-chunk claim/execute loops, and the lambdas
# that serve as task descriptors (the ParallelFor type-erasure trampoline,
# wait predicates, the scratch-dispatch wrapper). Setup/teardown code there
# may allocate (thread spawn, registry bookkeeping under the mutex); the
# drain/steal loops and task lambdas run once per chunk and must not.
SCHEDULER_FILES = ("src/support/parallel_for.cc", "src/support/parallel_for.h")
SCHEDULER_FN = re.compile(r'\b\w*(?:Drain|Steal)\w*\s*\(')


def all_lambda_bodies(text):
    """Yields (body_pos, body) for every lambda literal in `text`, with or
    without a parameter list. Array subscripts and attribute brackets are
    rejected because neither `(` params + `{` nor a bare `{` follows them."""
    for m in re.finditer(r'\[', text):
        cap_end = match_bracket(text, m.start(), '[', ']')
        if cap_end == -1:
            continue
        rest = re.match(r'\s*', text[cap_end:])
        pos = cap_end + rest.end()
        if pos < len(text) and text[pos] == '(':
            par_end = match_bracket(text, pos, '(', ')')
            if par_end == -1:
                continue
            between = re.match(r'\s*(?:mutable|noexcept)?\s*', text[par_end:])
            pos = par_end + between.end()
        if pos < len(text) and text[pos] == '{':
            body_end = match_bracket(text, pos, '{', '}')
            if body_end != -1:
                yield pos, text[pos:body_end]


# The training step's shard and parameter-gradient regions call these
# functions from their chunk bodies; they are scanned by name in the files
# that define them.
TRAINING_FILES = ("src/core/predictor.cc", "src/nn/layers.cc", "src/nn/attention.cc",
                  "src/nn/transformer.cc", "src/nn/optimizer.cc",
                  "src/dataset/batching.cc", "src/ast/compact_ast.cc")
TRAINING_SHARD_FN = re.compile(
    r'\b(?:\w*Rows\w*|CacheDest|Build\w*MatrixInto|RunGradTask|AddColumnSums|'
    r'AdamUpdate|AddTo)\s*\(')


def function_bodies(text, name_re):
    """Yields (body_pos, body) for every function *definition* whose name
    matches name_re (a call or declaration is skipped)."""
    for m in name_re.finditer(text):
        params_end = match_bracket(text, m.end() - 1, '(', ')')
        if params_end == -1:
            continue
        tail = re.match(r'\s*(?:const|noexcept|override|\s)*', text[params_end:])
        brace = params_end + tail.end()
        if brace >= len(text) or text[brace] != '{':
            continue
        body_end = match_bracket(text, brace, '{', '}')
        if body_end != -1:
            yield brace, text[brace:body_end]


def alloc_findings(rel, text, regions, why):
    findings = []
    for pos, body, what in regions:
        for pattern, token in ALLOC_TOKENS:
            tok = pattern.search(body)
            if tok:
                findings.append((rel, line_of(text, pos + tok.start()), "zero-alloc-fork",
                                 "allocation token `%s` inside a %s: %s" % (token, what, why)))
    return findings


# The serving forward's shard region calls these; scanned by name in the
# files that define them.
SERVING_FILES = ("src/core/predictor.cc", "src/nn/layers.cc", "src/nn/attention.cc",
                 "src/nn/transformer.cc", "src/nn/quantize.cc", "src/dataset/batching.cc",
                 "src/ast/compact_ast.cc")
SERVING_SHARD_FN = re.compile(
    r'\b(?:ForwardShard|\w*ForwardInference|ForwardRowsInto|ArenaDest|AttentionContextRows|'
    r'AddRows|QuantizeRows|ForwardQuantizedRowsInto|SoftmaxRows|QuantizeRowsImpl|'
    r'Pack\w*Rows\w*|LeafFeatureRowsInto|Build\w*MatrixInto|AddTo)\s*\(')


def callee_findings(root, files, fn_re, what, why):
    """Alloc tokens inside the named functions a region's bodies call."""
    findings = []
    for rel in files:
        path = os.path.join(root, rel.replace("/", os.sep))
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        regions = [(pos, body, what) for pos, body in function_bodies(text, fn_re)]
        findings.extend(alloc_findings(rel, text, regions, why))
    return findings


def training_shard_findings(root):
    """R4's training-step scope: alloc tokens inside a row primitive or
    gradient/optimizer kernel that shard and task bodies call."""
    return callee_findings(
        root, TRAINING_FILES, TRAINING_SHARD_FN, "training row primitive",
        "it runs inside the training step's shard/task regions and must be "
        "heap-free (size caches in BeginStep, or use the shard's scratch lease)")


def serving_shard_findings(root):
    """R4's serving scope: alloc tokens inside a function the serving
    forward's row shards call."""
    return callee_findings(
        root, SERVING_FILES, SERVING_SHARD_FN, "serving shard function",
        "it runs inside the serving forward's shard region and must be heap-free "
        "(take tensors from the shard's arena)")


def scheduler_steal_drain_findings(root):
    """R4's widened scope: alloc tokens inside the scheduler's *Drain*/*Steal*
    function bodies or inside any task-descriptor lambda in the scheduler
    files."""
    findings = []
    for rel in SCHEDULER_FILES:
        path = os.path.join(root, rel.replace("/", os.sep))
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        regions = [(pos, body, "steal/drain function")
                   for pos, body in function_bodies(text, SCHEDULER_FN)]
        for pos, body in all_lambda_bodies(text):
            regions.append((pos, body, "task-descriptor lambda"))
        findings.extend(alloc_findings(
            rel, text, regions,
            "the scheduler's steal/drain path runs once per chunk of every region "
            "and must be heap-free"))
    return findings


def check_zero_alloc_fork(root):
    findings = []
    for path in iter_source_files(root, ["src"], exts=(".cc",)):
        rel = relpath(root, path)
        if rel in SCHEDULER_FILES:
            continue  # the primitive itself is scanned below, not as call sites
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        lambdas = file_scope_lambdas(text)
        for call in FORK_CALL.finditer(text):
            for body_pos, body in chunk_bodies_at(text, call, lambdas):
                for pattern, token in ALLOC_TOKENS:
                    tok = pattern.search(body)
                    if tok:
                        findings.append(
                            (rel, line_of(text, body_pos + tok.start()),
                             "zero-alloc-fork",
                             "allocation token `%s` inside a %s chunk body: "
                             "chunk bodies must be heap-free (lease arena "
                             "scratch pre-fork instead)" % (token, call.group(1))))
    findings.extend(scheduler_steal_drain_findings(root))
    findings.extend(training_shard_findings(root))
    findings.extend(serving_shard_findings(root))
    return findings


ALL_RULES = [
    ("isa-isolation", check_isa_isolation),
    ("determinism-sources", check_determinism_sources),
    ("workspace-threading", check_workspace_threading),
    ("zero-alloc-fork", check_zero_alloc_fork),
]


def run_all(root):
    findings = []
    for _, rule in ALL_RULES:
        findings.extend(rule(root))
    return findings


# ---------------------------------------------------------------------------
# Self-test: seed violations of every rule in a temp tree (one per covered
# scope where a rule spans several directories); every seed must fire
# individually, and every rule must stay quiet on a minimal clean tree. A
# seed's optional third element names R4 scopes (message fragments) that
# must each report it.
# ---------------------------------------------------------------------------
SEEDED_VIOLATIONS = {
    "isa-isolation": [("src/nn/bad_simd.cc", "#include <immintrin.h>\n")],
    "determinism-sources": [
        ("src/nn/bad_rand.cc",
         "#include <unordered_map>\n"
         "float Sum() {\n"
         "  std::unordered_map<int, float> acc;\n"
         "  float s = static_cast<float>(rand());\n"
         "  for (const auto& kv : acc) s += kv.second;\n"
         "  return s;\n"
         "}\n"),
        # The widened scope: a search driver whose dedup/randomness would
        # break the same-seed => same-SearchCurve contract.
        ("src/search/bad_dedup.cc",
         "#include <random>\n"
         "#include <unordered_map>\n"
         "size_t Dedup(const std::vector<uint64_t>& keys) {\n"
         "  std::random_device rd;\n"
         "  std::unordered_map<uint64_t, size_t> slots;\n"
         "  for (uint64_t k : keys) slots.emplace(k, slots.size() + rd());\n"
         "  return slots.size();\n"
         "}\n"),
    ],
    "workspace-threading": [
        ("src/nn/bad_layer.cc",
         "Matrix Foo::ForwardInference(const Matrix& x) const {\n"
         "  Matrix y(x.rows(), x.cols());\n"
         "  return y;\n"
         "}\n"),
        # A by-value overload that runs the arena path on a scratch
        # Workspace and copies the result out: no longer sanctioned.
        ("src/core/bad_wrapper.cc",
         "Matrix Foo::ForwardInference(const Matrix& x) const {\n"
         "  Workspace ws;\n"
         "  return *ForwardInference(x, &ws);\n"
         "}\n"),
        # A whole-batch training wrapper that keeps a copy of its input: a
        # third entry point beside the row primitives and ForwardInference.
        ("src/nn/bad_whole_batch.cc",
         "Matrix Linear::Backward(const Matrix& dy) {\n"
         "  dy_ = dy;\n"
         "  Matrix dx(dy.rows(), in_dim());\n"
         "  InputGradRows(0, dy.rows(), dx.data(), dx.cols());\n"
         "  return dx;\n"
         "}\n")],
    "zero-alloc-fork": [
        ("src/nn/bad_fork.cc",
         "void Bar(std::vector<float>* v) {\n"
         "  ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {\n"
         "    for (int64_t i = b; i < e; ++i) v->push_back(0.0f);\n"
         "  });\n"
         "}\n"),
        # A chunk lambda whose parameters carry the primitive's own names
        # (`int64_t begin`): still a call site, so its body is scanned.
        ("src/dataset/bad_begin.cc",
         "void Fill(std::vector<std::vector<int>>* rows) {\n"
         "  ParallelFor(0, 8, 1, [&](int64_t begin, int64_t end) {\n"
         "    for (int64_t i = begin; i < end; ++i) (*rows)[i].reserve(4);\n"
         "  });\n"
         "}\n"),
        # The widened scope, leg 1: an allocation smuggled into the stealing
        # scheduler's per-chunk drain loop.
        ("src/support/parallel_for.cc",
         "void ThreadPool::Impl::DrainRegion(Region* r, bool stealing) {\n"
         "  for (;;) {\n"
         "    claimed.push_back(r->next.fetch_add(r->grain));\n"
         "    if (claimed.back() >= r->end) return;\n"
         "  }\n"
         "}\n"),
        # The widened scope, leg 2: a task-descriptor lambda (the kind the
        # type-erasure trampoline is) that allocates per invocation.
        ("src/support/parallel_for.h",
         "inline void SubmitChunk(void* ctx) {\n"
         "  auto task = [](void* c, int64_t b, int64_t e) {\n"
         "    static_cast<std::vector<float>*>(c)->resize(static_cast<size_t>(e - b));\n"
         "  };\n"
         "  task(ctx, 0, 8);\n"
         "}\n"),
        # The training step, leg 1: a shard body of the sample-sharded
        # training regions that grows a container per shard.
        ("src/core/bad_shard.cc",
         "void Step(int batch, std::vector<int>* seen) {\n"
         "  RunSampleShards(batch, [&](Workspace* scratch, int s0, int s1) {\n"
         "    seen->push_back(s1 - s0);\n"
         "  });\n"
         "}\n"),
        # The training step, leg 2: a row primitive (called from shard
        # bodies) that sizes its cache inside the region instead of in
        # BeginStep.
        ("src/nn/layers.cc",
         "Matrix& Linear::ForwardRows(const Matrix& x, int r0, int r1) {\n"
         "  y_.Resize(x.rows(), out_dim());\n"
         "  return y_;\n"
         "}\n"),
        # The shared forward body, which training and serving shards both
        # run: an allocation there must fire in both scopes.
        ("src/nn/transformer.cc",
         "Matrix* TransformerEncoderLayer::ForwardRowsInto(const Matrix& x, int r0, int r1,\n"
         "                                                 const Dest& dest) const {\n"
         "  auto ff = std::make_unique<Matrix>(r1 - r0, x.cols());\n"
         "  return dest.norm2.y;\n"
         "}\n",
         ("training row primitive", "serving shard function")),
        # Linear's int8 branch, which serving shards run and which sits in
        # the body training runs: a heap buffer for the quantized codes
        # there must fire in both scopes.
        ("src/nn/layers.cc",
         "void Linear::ForwardRowsInto(const Matrix& x, int r0, int r1, kernels::Activation act,\n"
         "                             Precision precision, Matrix* y, Workspace* scratch) const {\n"
         "  if (precision == Precision::kInt8 && int8_ != nullptr) {\n"
         "    std::vector<int16_t> codes;\n"
         "    codes.resize(static_cast<size_t>(r1 - r0) * x.cols());\n"
         "    return;\n"
         "  }\n"
         "}\n",
         ("training row primitive", "serving shard function")),
        # The serving forward, leg 1: a wave's shard body that grows a
        # container per shard.
        ("src/core/bad_wave.cc",
         "void Wave(ThreadPool& pool, ShardArenas& arenas, int64_t n,\n"
         "          std::vector<int64_t>* seen) {\n"
         "  auto run_shards = [&](Workspace* scratch, int64_t j0, int64_t j1) {\n"
         "    seen->emplace_back(j1 - j0);\n"
         "  };\n"
         "  pool.ParallelForWithScratch(arenas, 0, n, 1, run_shards);\n"
         "}\n"),
        # The serving forward, leg 2: a function a shard calls that
        # heap-allocates a temporary instead of taking it from the arena.
        ("src/nn/attention.cc",
         "void AttentionContextRows(const Matrix& q, int r0, int r1, Workspace* scratch) {\n"
         "  auto scores = std::make_unique<Matrix>(8, 8);\n"
         "  scratch->NewMatrix(r1 - r0, q.cols());\n"
         "}\n",
         ("training row primitive", "serving shard function")),
        # The positional-encoding lookup, which both regions' featurizers
        # call per leaf: a heap row for the fallback encoding there must
        # fire in both scopes.
        ("src/ast/compact_ast.cc",
         "void PositionalEncodingTable::AddTo(int ordering_value, float* row) const {\n"
         "  std::vector<float> pe(kFeatDim);\n"
         "  pe.resize(kFeatDim);\n"
         "  row[0] += pe[0];\n"
         "}\n",
         ("training row primitive", "serving shard function")),
    ],
}

CLEAN_FILES = {
    "src/nn/good.cc":
        "Matrix* Foo::ForwardInference(const Matrix& x, Workspace* ws) const {\n"
        "  Matrix* y = ws->NewMatrix(x.rows(), x.cols());\n"
        "  auto fill = [&](int64_t b, int64_t e) {\n"
        "    for (int64_t i = b; i < e; ++i) y->data()[i] = 0.0f;\n"
        "  };\n"
        "  ParallelFor(0, static_cast<int64_t>(x.size()), 8, fill);\n"
        "  return y;\n"
        "}\n",
    "CMakeLists.txt":
        'check_cxx_compiler_flag("-mavx2" HAS_MAVX2)\n'
        "set_source_files_properties(src/nn/kernels_avx2.cc PROPERTIES "
        'COMPILE_OPTIONS "-mavx2;-mfma")\n',
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint_invariants_selftest_") as tmp:
        for rel, content in CLEAN_FILES.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        clean = run_all(tmp)
        if clean:
            failures.append("clean tree produced findings: %r" % (clean,))
        seeded = 0
        for rule_name, seeds in SEEDED_VIOLATIONS.items():
            for rel, content, *scopes in seeds:
                seeded += 1
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
                found = [f4 for f4 in run_all(tmp)
                         if f4[2] == rule_name and f4[0] == rel]
                if not found:
                    failures.append("seeded %s violation in %s was NOT detected" %
                                    (rule_name, rel))
                for scope in (scopes[0] if scopes else ()):
                    if not any(scope in f4[3] for f4 in found):
                        failures.append("seeded %s violation in %s was NOT detected "
                                        "as a %s" % (rule_name, rel, scope))
                os.remove(path)
    if failures:
        for msg in failures:
            print("SELF-TEST FAIL: %s" % msg, file=sys.stderr)
        return 2
    print("self-test: %d seeded violations across %d rules all fire, "
          "clean tree passes" % (seeded, len(ALL_RULES)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint (default: this repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed a violation of each rule and assert detection")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = run_all(args.root)
    for rel, lineno, rule, msg in sorted(findings):
        print("%s:%d: [%s] %s" % (rel, lineno, rule, msg))
    if findings:
        print("%d invariant violation(s)" % len(findings), file=sys.stderr)
        return 1
    print("lint_invariants: all %d rules clean" % len(ALL_RULES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
