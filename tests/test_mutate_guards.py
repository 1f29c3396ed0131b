"""The guard selection of ``tests/mutate_guards.py --changed``."""

from mutate_guards import ROOT, added_lines, guards

DIFF = """\
diff --git a/src/dnas/a.py b/src/dnas/a.py
index 1111111..2222222 100644
--- a/src/dnas/a.py
+++ b/src/dnas/a.py
@@ -3 +3 @@ def f():
-    if x:
+    if y:
@@ -10,2 +9,0 @@ def g():
-    pass
-+++ b/src/dnas/looks_like_a_header.py
@@ -20,0 +19,3 @@ def h():
+    if (a
+++ b/src/dnas/looks_like_a_header.py
+        return
@@ -30 +31 @@ def k():
-    x = 1
\\ No newline at end of file
+    x = 2
\\ No newline at end of file
diff --git a/src/dnas/b.py b/src/dnas/b.py
deleted file mode 100644
index 3333333..0000000
--- a/src/dnas/b.py
+++ /dev/null
@@ -1,2 +0,0 @@
-import os
-import sys
diff --git a/src/dnas/d.py b/src/dnas/d.py
new file mode 100644
index 0000000..4444444
--- /dev/null
+++ b/src/dnas/d.py
@@ -0,0 +1,2 @@
+import os
+@@ -1 +1 @@
"""


def test_added_lines_are_numbered_as_in_the_new_file():
    # a removal adds nothing, a deleted file adds nothing, and no line of a
    # hunk's body is read as a file or hunk header, whatever it starts with
    assert added_lines(DIFF) == {"src/dnas/a.py": {3, 19, 20, 21, 31},
                                 "src/dnas/d.py": {1, 2}}


def _line(path, text):
    return (ROOT / path).read_text().splitlines().index(text) + 1


def test_a_guard_is_chosen_by_any_line_of_its_test():
    path = "src/dnas/content_store.py"
    line = _line(path, "        if heir == node_id:")
    assert list(guards({path: {line}})) == [f"{path}:{line}"]
    assert list(guards({path: {line + 1}})) == []  # the raise is the body, not the test
    assert list(guards({})) == []
    # a test over two lines: its second line chooses the guard too
    path = "src/dnas/service.py"
    line = _line(path, "        if not (isinstance(wine_id, str) and isinstance(device_id, str)")
    assert list(guards({path: {line + 1}})) == [f"{path}:{line}"]
