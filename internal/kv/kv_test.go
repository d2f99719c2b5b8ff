package kv_test

import (
	"reflect"
	"strings"
	"testing"

	"mac3d/internal/chaos"
	"mac3d/internal/cluster"
	"mac3d/internal/coalesce"
	"mac3d/internal/hmc"
	"mac3d/internal/kv"
	"mac3d/internal/svcchaos"
)

// block is one config string's parser, with a prefix every input must
// start with (the cube's topology, the cluster's mandatory shards) and
// two valid elements that may follow it.
type block struct {
	name   string
	parse  func(string) error
	prefix string
	elem   [2]string
}

func blocks() []block {
	return []block{
		{"chaos", func(s string) error { _, err := chaos.ParseProfile(s); return err },
			"", [2]string{"delay=0.1", "reorder=0.2"}},
		{"svcchaos", func(s string) error { _, err := svcchaos.ParseProfile(s); return err },
			"", [2]string{"kill=0.1", "drop=0.2"}},
		{"cube", func(s string) error { _, err := hmc.ParseCubeConfig(s); return err },
			"ring", [2]string{"page=open", "hop=3"}},
		{"tuning", func(s string) error { _, err := coalesce.ParseTuning(s); return err },
			"", [2]string{"lanes=8", "warps=4"}},
		{"cluster", func(s string) error { _, err := cluster.ParseConfig(s); return err },
			"shards=http://a:1", [2]string{"vnodes=8", "seed=3"}},
	}
}

// TestRuleSet runs every config string parser over the same shapes,
// each built on the block's own valid elements, and requires one
// verdict per shape from all of them.
func TestRuleSet(t *testing.T) {
	join := func(b block, elems ...string) string {
		if b.prefix != "" {
			elems = append([]string{b.prefix}, elems...)
		}
		return strings.Join(elems, ",")
	}
	key := func(e string) string { k, _, _ := strings.Cut(e, "="); return k }
	val := func(e string) string { _, v, _ := strings.Cut(e, "="); return v }
	shapes := []struct {
		name string
		in   func(b block) string
		ok   bool
	}{
		{"two elements", func(b block) string { return join(b, b.elem[0], b.elem[1]) }, true},
		{"empty element", func(b block) string { return join(b, b.elem[0], "", b.elem[1]) }, false},
		{"repeated key", func(b block) string { return join(b, b.elem[0], b.elem[0]) }, false},
		{"spaces around =", func(b block) string {
			return join(b, key(b.elem[0])+" = "+val(b.elem[0]))
		}, true},
		{"spaces around the string and elements", func(b block) string {
			return " " + join(b, " "+b.elem[0]+" ", b.elem[1]) + " "
		}, true},
		{"unknown key", func(b block) string { return join(b, b.elem[0], "bogus=1") }, false},
		{"bare key", func(b block) string { return join(b, key(b.elem[0])) }, false},
		{"empty value", func(b block) string { return join(b, key(b.elem[0])+"=") }, false},
		{"empty key", func(b block) string { return join(b, "="+val(b.elem[0])) }, false},
		{"trailing comma", func(b block) string { return join(b, b.elem[0]) + "," }, false},
		{"leading comma", func(b block) string { return "," + join(b, b.elem[0]) }, false},
	}
	for _, sh := range shapes {
		for _, b := range blocks() {
			in := sh.in(b)
			if err := b.parse(in); (err == nil) != sh.ok {
				t.Errorf("%s: %s(%q) = %v, want accepted=%v", sh.name, b.name, in, err, sh.ok)
			}
		}
	}
	// A trailing comma after the cube's bare topology is an empty
	// element too.
	if _, err := hmc.ParseCubeConfig("ring,"); err == nil {
		t.Error(`cube accepted "ring,"`)
	}
}

// TestEmptyParsesAllocateNothing pins the empty-string paths that every
// run validation takes: none of them builds a codec table.
func TestEmptyParsesAllocateNothing(t *testing.T) {
	for name, f := range map[string]func(){
		"ParseTuning":     func() { _, _ = coalesce.ParseTuning("") },
		"ParseCubeConfig": func() { _, _ = hmc.ParseCubeConfig("") },
		"ParseProfile":    func() { _, _ = chaos.ParseProfile("") },
		"NewEngine":       func() { _, _ = chaos.NewEngine(chaos.Profile{}, 32) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times", name, n)
		}
	}
}

func TestGrammarRepeatAndHead(t *testing.T) {
	g := kv.Grammar{What: "test", Head: "head", Keys: []string{"a", "t"}, Repeat: "t"}
	var got []string
	err := g.Parse(" top , t = 1 ,a=x=y, t=2 ", func(k, v string) error {
		got = append(got, k+"|"+v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"head|top", "t|1", "a|x=y", "t|2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("elements = %q, want %q", got, want)
	}
	for _, in := range []string{"top,a=1,a=2", ",a=1", "top,,a=1", "top,b=1"} {
		if err := g.Parse(in, func(k, v string) error { return nil }); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	for _, c := range []struct {
		val string
		ok  bool
	}{{"0", true}, {"+7", true}, {"8", true}, {"9", false}, {"-1", false}, {"x", false}, {"", false}} {
		if _, err := kv.Int("k", c.val, 0, 8); (err == nil) != c.ok {
			t.Errorf("Int(%q) err = %v, want ok=%v", c.val, err, c.ok)
		}
	}
	for _, c := range []struct {
		val string
		ok  bool
	}{{"0", true}, {"1", true}, {"1e-3", true}, {"1.5", false}, {"-0.1", false}, {"NaN", false}, {"x", false}} {
		if _, err := kv.Rate("k", c.val); (err == nil) != c.ok {
			t.Errorf("Rate(%q) err = %v, want ok=%v", c.val, err, c.ok)
		}
	}
}

// FuzzParse holds the lexer to its contract: it never panics, and any
// input it accepts, rendered canonically, lexes back to the same
// elements.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", " ", "a=1", "a=1,b=2", " a = 1 , b=2 ", "a=1,a=2", "t=1,t=2",
		"a=1,", ",a=1", "a=1,,b=2", "a", "=1", "a=", "a=b=c", "bogus=1",
		"ring,a=1", "ring,", "a=1:2:3", "\ta=\n1",
	} {
		f.Add(s)
	}
	grammars := []kv.Grammar{
		{What: "flat", Keys: []string{"a", "b", "t"}, Repeat: "t"},
		{What: "headed", Head: "head", Keys: []string{"a", "b"}},
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, g := range grammars {
			lex := func(s string) ([][2]string, error) {
				var els [][2]string
				err := g.Parse(s, func(k, v string) error {
					els = append(els, [2]string{k, v})
					return nil
				})
				return els, err
			}
			els, err := lex(s)
			if err != nil {
				continue
			}
			parts := make([]string, len(els))
			for i, e := range els {
				if i == 0 && g.Head != "" {
					parts[i] = e[1]
				} else {
					parts[i] = e[0] + "=" + e[1]
				}
			}
			canon := strings.Join(parts, ",")
			again, err := lex(canon)
			if err != nil {
				t.Fatalf("%s: canonical form %q of %q does not lex: %v", g.What, canon, s, err)
			}
			if !reflect.DeepEqual(again, els) {
				t.Fatalf("%s: %q lexes to %q, its canonical form %q to %q", g.What, s, els, canon, again)
			}
		}
	})
}
