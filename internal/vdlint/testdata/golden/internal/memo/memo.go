// Package memo mirrors the repo's cache primitive, so casedigest can
// tell a per-pointer memo of services from a per-body one.
package memo

type Cache[K comparable, V any] struct{ m map[K]V }

func New[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{m: map[K]V{}}
}
