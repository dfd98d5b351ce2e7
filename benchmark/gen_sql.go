package main

import (
	"strconv"

	"unikraft/internal/apps/sqldb"
)

// sqlStmt is one generated statement with what its result must be.
type sqlStmt struct {
	text     string
	kind     byte // 'I' insert, 'S' point select, 'D' delete, 'C' count
	id       int64
	name     string // the row a select must return
	affected int    // rows an insert or delete must report
	count    int64  // what a count must return
}

// sqlPlan is the SQL workload's input: a set-up script that creates the
// tables and fills the small hot table, and the timed stream — bulk
// inserts into a growing table, then point selects, deletes and
// re-inserts against the hot one. The generator keeps a model of the
// hot table, so every statement carries its expected result.
//
// Point selects and deletes scan their table (sqldb indexes the rowid,
// not the id column), so they run against the 256-row hot table: the
// same statements against the bulk table would cost ~4 ms of host time
// each.
type sqlPlan struct {
	setup  []sqlStmt
	stream []sqlStmt
}

const sqlHotRows = 256

func sqlName(r *rng) string {
	b := make([]byte, r.between(6, 30))
	for i := range b {
		b[i] = byte('a' + r.intn(26))
	}
	return string(b)
}

func newSQLPlan(seed uint64, inserts, selects, deletes int, digest *fnv64) *sqlPlan {
	r := newRNG(seed, "sql")
	p := &sqlPlan{}
	add := func(dst *[]sqlStmt, s sqlStmt) {
		digest.bytes([]byte(s.text))
		*dst = append(*dst, s)
	}
	insert := func(table string, id int64, name string) sqlStmt {
		return sqlStmt{kind: 'I', id: id, name: name, affected: 1,
			text: "INSERT INTO " + table + " VALUES (" + strconv.FormatInt(id, 10) + ", '" + name + "')"}
	}
	add(&p.setup, sqlStmt{kind: 'X', text: "CREATE TABLE big (id INT, name TEXT)"})
	add(&p.setup, sqlStmt{kind: 'X', text: "CREATE TABLE hot (id INT, name TEXT)"})

	// The hot table's model: ids are unique, so a point select returns
	// exactly one row and a delete removes exactly one.
	hotIDs := make([]int64, 0, sqlHotRows)
	hotName := map[int64]string{}
	nextID := int64(1)
	newHot := func(dst *[]sqlStmt) {
		id, name := nextID+int64(r.intn(1000)), sqlName(r)
		nextID = id + 1
		hotIDs = append(hotIDs, id)
		hotName[id] = name
		add(dst, insert("hot", id, name))
	}
	for i := 0; i < sqlHotRows; i++ {
		newHot(&p.setup)
	}

	for i := 0; i < inserts; i++ {
		add(&p.stream, insert("big", int64(i)*7+int64(r.intn(7)), sqlName(r)))
	}
	// Selects and delete/re-insert pairs interleave in a seeded order.
	for s, d := selects, deletes; s+d > 0; {
		if r.intn(s+d) < s {
			id := hotIDs[r.intn(len(hotIDs))]
			add(&p.stream, sqlStmt{kind: 'S', id: id, name: hotName[id],
				text: "SELECT id, name FROM hot WHERE id = " + strconv.FormatInt(id, 10)})
			s--
			continue
		}
		k := r.intn(len(hotIDs))
		id := hotIDs[k]
		hotIDs[k] = hotIDs[len(hotIDs)-1]
		hotIDs = hotIDs[:len(hotIDs)-1]
		delete(hotName, id)
		add(&p.stream, sqlStmt{kind: 'D', id: id, affected: 1,
			text: "DELETE FROM hot WHERE id = " + strconv.FormatInt(id, 10)})
		newHot(&p.stream)
		d--
	}
	add(&p.stream, sqlStmt{kind: 'C', count: int64(inserts), text: "SELECT COUNT(*) FROM big"})
	add(&p.stream, sqlStmt{kind: 'C', count: int64(len(hotIDs)), text: "SELECT COUNT(*) FROM hot"})
	return p
}

// matches reports whether a statement's result is what the plan
// expects.
func (s *sqlStmt) matches(res *sqldb.Result) bool {
	switch s.kind {
	case 'I', 'D':
		return res.Affected == s.affected
	case 'S':
		return len(res.Rows) == 1 && len(res.Rows[0]) == 2 &&
			res.Rows[0][0].Int == s.id && res.Rows[0][1].Text == s.name
	case 'C':
		return len(res.Rows) == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0].Int == s.count
	}
	return true
}
