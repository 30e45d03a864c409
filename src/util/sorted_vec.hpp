// Sorted-vector-as-set primitives shared by the repair path's flat
// sets (free and taken nodes, unit dedupe). One audited
// implementation of the lower_bound + compare + insert/erase pattern; all
// operations reuse the vector's capacity, which is what makes steady-state
// repair allocation-free (DESIGN.md decision 6).
#pragma once

#include <algorithm>
#include <vector>

namespace xheal::util {

/// Insert keeping ascending order; returns false if already present.
template <typename T>
bool sorted_insert(std::vector<T>& v, const T& x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it != v.end() && *it == x) return false;
    v.insert(it, x);
    return true;
}

/// Erase if present; returns false if absent.
template <typename T>
bool sorted_erase(std::vector<T>& v, const T& x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it == v.end() || *it != x) return false;
    v.erase(it);
    return true;
}

/// Membership test on a sorted vector.
template <typename T>
bool sorted_contains(const std::vector<T>& v, const T& x) {
    return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace xheal::util
