#include "detect/tuning.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "detect/history.hpp"

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
    else if (key == "locks") ok = parse_bool(val, &base.lock_edges);
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
}

}  // namespace pint::detect
