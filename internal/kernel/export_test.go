package kernel

import "sort"

// WriteFile seeds a file on pid's node.
func (k *Kernel) WriteFile(pid int, path string, data []byte) {
	k.node(pid).setFile(path, append([]byte(nil), data...))
}

// Files lists pid's node's live files, sorted: the base's, minus local
// deletions, plus the node's own.
func (k *Kernel) Files(pid int) []string {
	set := make(map[string]bool)
	if n := k.nodes[pid]; n != nil {
		if n.base != nil {
			for p := range n.base.fs {
				if !n.deleted[p] {
					set[p] = true
				}
			}
		}
		for p := range n.fs {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Syscalls returns the number of syscalls pid's node has served.
func (k *Kernel) Syscalls(pid int) int64 {
	if n := k.nodes[pid]; n != nil {
		return n.Syscall
	}
	return 0
}
