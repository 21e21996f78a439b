#include "detect/tuning.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "detect/history.hpp"
#include "detect/types.hpp"
#include "support/arena.hpp"

namespace pint::detect {

namespace {

bool parse_bool(const std::string& v, bool* out) {
  if (v == "on" || v == "1" || v == "true") {
    *out = true;
    return true;
  }
  if (v == "off" || v == "0" || v == "false") {
    *out = false;
    return true;
  }
  return false;
}

bool parse_policy(const std::string& v, CursorPolicy* out) {
  if (v == "adaptive") *out = CursorPolicy::kAdaptive;
  else if (v == "inline") *out = CursorPolicy::kInline;
  else if (v == "wide") *out = CursorPolicy::kWide;
  else if (v == "bypass") *out = CursorPolicy::kBypass;
  else return false;
  return true;
}

void warn_once(const std::string& what) {
  static bool warned = false;
  if (warned) return;
  warned = true;
  std::fprintf(stderr, "pint: ignoring PINT_TUNING entry '%s'\n",
               what.c_str());
}

}  // namespace

Tuning Tuning::current() {
  Tuning t;
  t.bulk_apply = detect::bulk_apply();
  t.access_fast_path = detect::access_fast_path();
  t.cursor_policy = detect::cursor_policy();
  t.arena = support::arena_recycle();
  t.simd = detect::simd_merge();
  return t;
}

Tuning Tuning::parse(const char* spec, Tuning base) {
  if (spec == nullptr) return base;
  const char* p = spec;
  while (*p != '\0') {
    const char* end = std::strchr(p, ',');
    const std::string item(p, end == nullptr ? std::strlen(p) : end - p);
    p = end == nullptr ? p + item.size() : end + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (!item.empty()) warn_once(item);
      continue;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    bool ok = false;
    if (key == "bulk") ok = parse_bool(val, &base.bulk_apply);
    else if (key == "fastpath") ok = parse_bool(val, &base.access_fast_path);
    else if (key == "cursor") ok = parse_policy(val, &base.cursor_policy);
    else if (key == "memo") ok = parse_bool(val, &base.memo);
    else if (key == "locks") ok = parse_bool(val, &base.lock_edges);
    else if (key == "arena") ok = parse_bool(val, &base.arena);
    else if (key == "simd") ok = parse_bool(val, &base.simd);
    if (!ok) warn_once(item);
  }
  return base;
}

Tuning Tuning::from_env() {
  // getenv once per process; the spec string is parsed onto each snapshot so
  // a legacy setter flipped between constructions is still honored.
  static const char* spec = std::getenv("PINT_TUNING");
  return parse(spec, current());
}

void Tuning::apply_globals() const {
  set_bulk_apply(bulk_apply);
  set_access_fast_path(access_fast_path);
  set_cursor_policy(cursor_policy);
  support::set_arena_recycle(arena);
  set_simd_merge(simd);
}

}  // namespace pint::detect
