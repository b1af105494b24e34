/**
 * @file
 * The sorted-vector set and map behind every lattice state the fixpoint
 * solver (fixpoint.hh) copies and joins at each node visit: absint's
 * and SCCP's memory facts, the value-set layer of the target analysis,
 * live memory words and reaching definitions.
 *
 * Such a state holds tens of facts and is copied far more often than
 * it is searched. One ascending vector makes a copy one allocation and
 * a join one linear merge, where a node-based tree allocates per fact.
 * Only the part of the std::set / std::map interface those states use
 * is provided.
 */

#ifndef CRISP_ANALYSIS_FLAT_HH
#define CRISP_ANALYSIS_FLAT_HH

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <utility>
#include <vector>

namespace crisp::analysis
{

/** An ascending set without duplicates, stored as a vector. */
template <class T>
class FlatSet
{
  public:
    using value_type = T;
    using const_iterator = typename std::vector<T>::const_iterator;

    FlatSet() = default;

    FlatSet(std::initializer_list<T> init) : v_(init)
    {
        std::sort(v_.begin(), v_.end());
        v_.erase(std::unique(v_.begin(), v_.end()), v_.end());
    }

    const_iterator begin() const { return v_.begin(); }
    const_iterator end() const { return v_.end(); }
    std::size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    void clear() { v_.clear(); }

    /** The first element not less than @p x. */
    const_iterator
    lower_bound(const T& x) const
    {
        return std::lower_bound(v_.begin(), v_.end(), x);
    }

    bool
    contains(const T& x) const
    {
        return std::binary_search(v_.begin(), v_.end(), x);
    }

    /** Add @p x; false when it was already there. */
    bool
    insert(const T& x)
    {
        const auto it = std::lower_bound(v_.begin(), v_.end(), x);
        if (it != v_.end() && !(x < *it))
            return false;
        v_.insert(it, x);
        return true;
    }

    /** Remove @p x; false when it was not there. */
    bool
    erase(const T& x)
    {
        const auto it = std::lower_bound(v_.begin(), v_.end(), x);
        if (it == v_.end() || x < *it)
            return false;
        v_.erase(it);
        return true;
    }

    const_iterator
    erase(const_iterator first, const_iterator last)
    {
        return v_.erase(first, last);
    }

    /**
     * Append @p x, which must be greater than every element: merges
     * build their result in order (std::back_inserter works).
     */
    void
    push_back(const T& x)
    {
        assert(v_.empty() || v_.back() < x);
        v_.push_back(x);
    }

    bool operator==(const FlatSet&) const = default;

  private:
    std::vector<T> v_;
};

/** A map with ascending unique keys, stored as a vector of pairs. */
template <class K, class V>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator = typename std::vector<value_type>::const_iterator;

    iterator begin() { return v_.begin(); }
    iterator end() { return v_.end(); }
    const_iterator begin() const { return v_.begin(); }
    const_iterator end() const { return v_.end(); }
    std::size_t size() const { return v_.size(); }
    void clear() { v_.clear(); }

    iterator
    find(const K& k)
    {
        const auto it = lowerBound(v_, k);
        return it != v_.end() && it->first == k ? it : v_.end();
    }

    const_iterator
    find(const K& k) const
    {
        const auto it = lowerBound(v_, k);
        return it != v_.end() && it->first == k ? it : v_.end();
    }

    /** The value at @p k, inserted as V{} when absent. */
    V&
    operator[](const K& k)
    {
        auto it = lowerBound(v_, k);
        if (it == v_.end() || it->first != k)
            it = v_.insert(it, value_type(k, V{}));
        return it->second;
    }

    void
    erase(const K& k)
    {
        const auto it = find(k);
        if (it != v_.end())
            v_.erase(it);
    }

    /**
     * Append (@p k, @p v); @p k must be greater than every key held:
     * joins and widenings build their result in order.
     */
    void
    emplace_back(const K& k, V v)
    {
        assert(v_.empty() || v_.back().first < k);
        v_.emplace_back(k, std::move(v));
    }

    bool operator==(const FlatMap&) const = default;

  private:
    template <class Vec>
    static auto
    lowerBound(Vec& v, const K& k)
    {
        return std::lower_bound(
            v.begin(), v.end(), k,
            [](const value_type& e, const K& key) { return e.first < key; });
    }

    std::vector<value_type> v_;
};

/** Call @p f(key, va, vb) for every key both @p a and @p b hold, in
 *  ascending order: the intersecting half of every fact-map join. */
template <class K, class V, class F>
void
forCommonKeys(const FlatMap<K, V>& a, const FlatMap<K, V>& b, F f)
{
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (ia->first < ib->first) {
            ++ia;
        } else if (ib->first < ia->first) {
            ++ib;
        } else {
            f(ia->first, ia->second, ib->second);
            ++ia;
            ++ib;
        }
    }
}

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_FLAT_HH
